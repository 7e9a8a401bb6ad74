package vc

import (
	"math"
	"testing"
	"testing/quick"

	"vcgraph/internal/graph"
	"vcgraph/internal/seq"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsInf(a, 1) && math.IsInf(b, 1) {
		return true
	}
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

// --- PageRank ---

func TestPageRankMatchesPowerIteration(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"random":    graph.Random(200, 800, 7),
		"path":      graph.Path(50),
		"star":      graph.Star(40),
		"powerlaw":  graph.PreferentialAttachment(150, 3, 9),
		"directed":  graph.RandomDirected(120, 600, 11),
		"singleton": graph.New(1, false),
	}
	for name, g := range graphs {
		g := g
		t.Run(name, func(t *testing.T) {
			res, err := PreparePageRank(g, 0.85, 30, Config{Workers: 4})()
			if err != nil {
				t.Fatal(err)
			}
			var ops seq.Ops
			want := seq.PageRank(g, 0.85, 30, &ops)
			for v := range want {
				if !almostEqual(res.Ranks[v], want[v], 1e-9) {
					t.Fatalf("vertex %d: vc=%v seq=%v", v, res.Ranks[v], want[v])
				}
			}
		})
	}
}

func TestPageRankSuperstepCount(t *testing.T) {
	g := graph.Random(100, 300, 3)
	res, err := PreparePageRank(g, 0.85, 10, Config{})()
	if err != nil {
		t.Fatal(err)
	}
	// K send supersteps + 1 final halting superstep.
	if got := res.Stats.NumSupersteps(); got != 11 {
		t.Fatalf("supersteps = %d, want 11", got)
	}
}

func TestPageRankRanksSumToOneOnRegularGraph(t *testing.T) {
	// No dangling vertices on a cycle, so rank mass is conserved.
	g := graph.Cycle(64)
	res, err := PreparePageRank(g, 0.85, 40, Config{})()
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, r := range res.Ranks {
		sum += r
	}
	if !almostEqual(sum, 1, 1e-9) {
		t.Fatalf("ranks sum to %v, want 1", sum)
	}
}

// --- SSSP ---

func TestSSSPMatchesDijkstra(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		g := graph.RandomConnected(150, 500, seed)
		graph.RandomWeights(g, seed+100)
		res, err := PrepareSSSP(g, 0, Config{Workers: 3})()
		if err != nil {
			t.Fatal(err)
		}
		var ops seq.Ops
		want := seq.Dijkstra(g, 0, &ops)
		for v := range want {
			if !almostEqual(res.Dist[v], want[v], 1e-12) {
				t.Fatalf("seed %d vertex %d: vc=%v dijkstra=%v", seed, v, res.Dist[v], want[v])
			}
		}
	}
}

func TestSSSPDisconnected(t *testing.T) {
	g := graph.New(4, false)
	g.AddEdge(0, 1)
	// 2 and 3 isolated / pair
	g.AddEdge(2, 3)
	res, err := PrepareSSSP(g, 0, Config{})()
	if err != nil {
		t.Fatal(err)
	}
	if res.Dist[1] != 1 || !math.IsInf(res.Dist[2], 1) || !math.IsInf(res.Dist[3], 1) {
		t.Fatalf("dist = %v", res.Dist)
	}
}

func TestSSSPQuickAgainstBellmanFord(t *testing.T) {
	f := func(seed int64) bool {
		g := graph.Random(40, 100, seed)
		graph.RandomWeights(g, seed+1)
		res, err := PrepareSSSP(g, 0, Config{Workers: 2})()
		if err != nil {
			return false
		}
		var ops seq.Ops
		want := seq.BellmanFord(g, 0, &ops)
		for v := range want {
			if !almostEqual(res.Dist[v], want[v], 1e-12) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// --- Hash-Min CC ---

func TestHashMinMatchesBFSComponents(t *testing.T) {
	cases := map[string]*graph.Graph{
		"random-sparse": graph.Random(300, 350, 5),
		"path":          graph.Path(200),
		"disconnected":  graph.Random(100, 60, 8),
		"star":          graph.Star(50),
		"empty-edges":   graph.New(10, false),
	}
	for name, g := range cases {
		g := g
		t.Run(name, func(t *testing.T) {
			res, err := PrepareHashMinCC(g, Config{Workers: 4})()
			if err != nil {
				t.Fatal(err)
			}
			var ops seq.Ops
			want := seq.Components(g, &ops)
			for v := range want {
				if res.Color[v] != want[v] {
					t.Fatalf("vertex %d: vc=%d seq=%d", v, res.Color[v], want[v])
				}
			}
		})
	}
}

func TestHashMinSuperstepsTrackDiameter(t *testing.T) {
	// On a path graph Hash-Min needs Θ(n) supersteps: the paper's
	// witness that the algorithm is not BPPA.
	g := graph.Path(64)
	res, err := PrepareHashMinCC(g, Config{})()
	if err != nil {
		t.Fatal(err)
	}
	if ss := res.Stats.NumSupersteps(); ss < 60 {
		t.Fatalf("supersteps = %d, want ~n on a path", ss)
	}
}

func TestHashMinQuick(t *testing.T) {
	f := func(seed int64) bool {
		g := graph.Random(60, 80, seed)
		res, err := PrepareHashMinCC(g, Config{Workers: 2})()
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

// --- Diameter / APSP ---

func TestDiameterMatchesBFS(t *testing.T) {
	cases := map[string]*graph.Graph{
		"random":  graph.RandomConnected(120, 400, 4),
		"path":    graph.Path(40),
		"cycle":   graph.Cycle(31),
		"grid":    graph.Grid(8, 9),
		"star":    graph.Star(25),
		"tree":    graph.RandomTree(80, 6),
		"k5":      graph.Complete(5),
		"trivial": graph.New(1, false),
	}
	for name, g := range cases {
		g := g
		t.Run(name, func(t *testing.T) {
			res, err := Diameter(g, Config{Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			var ops seq.Ops
			wantEcc := seq.Eccentricities(g, &ops)
			var wantDiam int32
			for v, e := range wantEcc {
				if e > wantDiam {
					wantDiam = e
				}
				if res.Ecc[v] != e {
					t.Fatalf("ecc[%d]: vc=%d seq=%d", v, res.Ecc[v], e)
				}
			}
			if res.Diameter != wantDiam {
				t.Fatalf("diameter: vc=%d seq=%d", res.Diameter, wantDiam)
			}
		})
	}
}

func TestDiameterSuperstepsEqualDiameterPlusTwo(t *testing.T) {
	// Supersteps: 1 originate + δ propagation + 1 final empty round.
	g := graph.Path(30)
	res, err := Diameter(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Stats.NumSupersteps(), int(res.Diameter)+2; got != want {
		t.Fatalf("supersteps = %d, want %d (δ=%d)", got, want, res.Diameter)
	}
}

func TestAPSPMatrixMatchesBFS(t *testing.T) {
	g := graph.RandomConnected(60, 150, 12)
	res, err := Diameter(g, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	var ops seq.Ops
	want := seq.APSPUnweighted(g, &ops)
	for u := range want {
		for v := range want[u] {
			// res.Dist[v][u] = distance from u to v; undirected so symmetric.
			if res.Dist[v][u] != want[u][v] {
				t.Fatalf("dist(%d,%d): vc=%d bfs=%d", u, v, res.Dist[v][u], want[u][v])
			}
		}
	}
}

func TestDiameterStateGrowsWithN(t *testing.T) {
	// The history set makes per-vertex state Θ(n): BPPA property P1
	// must fail, which CheckBPPA detects via ratio growth.
	small, err := Diameter(graph.RandomConnected(50, 120, 3), Config{})
	if err != nil {
		t.Fatal(err)
	}
	large, err := Diameter(graph.RandomConnected(400, 960, 3), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if large.Stats.MaxStatePerDeg <= small.Stats.MaxStatePerDeg*1.45 {
		t.Fatalf("state ratio did not grow: small=%v large=%v",
			small.Stats.MaxStatePerDeg, large.Stats.MaxStatePerDeg)
	}
}
