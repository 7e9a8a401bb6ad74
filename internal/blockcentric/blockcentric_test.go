package blockcentric_test

import (
	"testing"
	"testing/quick"
	. "vcgraph/internal/blockcentric"

	"vcgraph/internal/graph"
	"vcgraph/internal/seq"
	"vcgraph/internal/vc"
)

func TestBlockCCMatchesBFS(t *testing.T) {
	cases := map[string]*graph.Graph{
		"random":       graph.Random(300, 600, 3),
		"path":         graph.Path(256),
		"disconnected": graph.Random(200, 120, 7),
		"star":         graph.Star(64),
		"grid":         graph.Grid(12, 12),
		"isolated":     graph.New(9, false),
	}
	for name, g := range cases {
		g := g
		t.Run(name, func(t *testing.T) {
			for _, blocks := range []int{1, 3, 8} {
				res, err := PrepareConnectedComponents(g, Config{Blocks: blocks})()
				if err != nil {
					t.Fatal(err)
				}
				var ops seq.Ops
				want := seq.Components(g, &ops)
				for v := range want {
					if res.Color[v] != want[v] {
						t.Fatalf("blocks=%d vertex %d: got %d want %d", blocks, v, res.Color[v], want[v])
					}
				}
			}
		})
	}
}

func TestBlockCCQuick(t *testing.T) {
	f := func(seed int64) bool {
		g := graph.Random(80, 110, seed)
		res, err := PrepareConnectedComponents(g, Config{Blocks: 5})()
		if err != nil {
			return false
		}
		var ops seq.Ops
		want := seq.Components(g, &ops)
		for v := range want {
			if res.Color[v] != want[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestBlockCentricBeatsVertexCentricOnSupersteps is the conclusion's
// claim measured: on a path, vertex-centric Hash-Min needs Θ(n)
// supersteps while the block-centric version needs Θ(B).
func TestBlockCentricBeatsVertexCentricOnSupersteps(t *testing.T) {
	g := graph.Path(2048)
	bc, err := PrepareConnectedComponents(g, Config{Blocks: 8})()
	if err != nil {
		t.Fatal(err)
	}
	vcRes, err := vc.PrepareHashMinCC(g, vc.Config{Workers: 8})()
	if err != nil {
		t.Fatal(err)
	}
	if bcSS, vcSS := bc.Stats.NumSupersteps(), vcRes.Stats.NumSupersteps(); bcSS*20 > vcSS {
		t.Fatalf("block-centric %d supersteps vs vertex-centric %d: expected >20x gap", bcSS, vcSS)
	}
	// And the boundary-only message volume is far below Hash-Min's.
	if bc.Stats.TotalMessages*10 > vcRes.Stats.TotalMessages {
		t.Fatalf("block-centric messages %d vs vertex-centric %d: expected >10x gap",
			bc.Stats.TotalMessages, vcRes.Stats.TotalMessages)
	}
}

func TestBlockCountOneIsSequential(t *testing.T) {
	g := graph.RandomConnected(500, 1200, 5)
	res, err := PrepareConnectedComponents(g, Config{Blocks: 1})()
	if err != nil {
		t.Fatal(err)
	}
	// A single block resolves any graph in two supersteps (compute +
	// quiescence detection).
	if res.Stats.NumSupersteps() > 2 {
		t.Fatalf("single block took %d supersteps", res.Stats.NumSupersteps())
	}
}

func TestBlockEngineSuperstepCap(t *testing.T) {
	g := graph.Path(64)
	_, err := PrepareConnectedComponents(g, Config{Blocks: 16, MaxSupersteps: 2})()
	if err == nil {
		t.Fatal("expected superstep cap error")
	}
}

func TestBlockPartitionCustom(t *testing.T) {
	g := graph.Path(40)
	interleaved := func(g *graph.Graph, workers int) []int32 {
		o := make([]int32, g.N())
		for v := range o {
			o[v] = int32(v % workers)
		}
		return o
	}
	res, err := PrepareConnectedComponents(g, Config{Blocks: 4, Partition: interleaved})()
	if err != nil {
		t.Fatal(err)
	}
	for v, c := range res.Color {
		if c != 0 {
			t.Fatalf("vertex %d label %d", v, c)
		}
	}
}

func TestBlockCCStatsShape(t *testing.T) {
	g := graph.Path(100)
	res, err := PrepareConnectedComponents(g, Config{Blocks: 4})()
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.Workers != 4 {
		t.Fatalf("workers = %d", st.Workers)
	}
	if st.NumSupersteps() == 0 || st.TotalWork == 0 {
		t.Fatalf("empty stats: %+v", st)
	}
	// Boundary-only messages: a path in 4 contiguous blocks has 3
	// boundary edges; each label push crosses one.
	if st.TotalMessages > 20 {
		t.Fatalf("messages = %d; expected boundary-only traffic", st.TotalMessages)
	}
}

func TestBlockCountExceedingVertices(t *testing.T) {
	g := graph.Path(3)
	res, err := PrepareConnectedComponents(g, Config{Blocks: 8})()
	if err != nil {
		t.Fatal(err)
	}
	for v, c := range res.Color {
		if c != 0 {
			t.Fatalf("vertex %d label %d", v, c)
		}
	}
}

func TestBlockCCWeightedLabelsIgnoreWeights(t *testing.T) {
	g := graph.RandomConnected(60, 150, 9)
	graph.RandomWeights(g, 10)
	res, err := PrepareConnectedComponents(g, Config{Blocks: 3})()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Color {
		if c != 0 {
			t.Fatalf("connected graph split: %v", c)
		}
	}
}
