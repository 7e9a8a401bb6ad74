package vc

import (
	"testing"
	"testing/quick"

	"vcgraph/internal/graph"
	"vcgraph/internal/seq"
)

// --- Triangle counting / clustering (§3.8 workloads) ---

func TestTrianglesKnownShapes(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want int64
	}{
		{"triangle", graph.Complete(3), 1},
		{"k4", graph.Complete(4), 4},
		{"k5", graph.Complete(5), 10},
		{"path", graph.Path(10), 0},
		{"cycle4", graph.Cycle(4), 0},
		{"star", graph.Star(20), 0},
		{"grid", graph.Grid(5, 5), 0},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			res, err := Triangles(tc.g, Config{Workers: 3})
			if err != nil {
				t.Fatal(err)
			}
			if res.Total != tc.want {
				t.Fatalf("total = %d, want %d", res.Total, tc.want)
			}
		})
	}
}

func TestTrianglesMatchSequential(t *testing.T) {
	f := func(seed int64) bool {
		g := graph.Random(60, 300, seed)
		res, err := Triangles(g, Config{Workers: 4})
		if err != nil {
			return false
		}
		var ops seq.Ops
		per, total := seq.Triangles(g, &ops)
		if res.Total != total {
			return false
		}
		for v := range per {
			if res.PerVertex[v] != per[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestClusteringCoefficients(t *testing.T) {
	// K4 minus one edge: the two degree-3... build: 0-1,0-2,0-3,1-2,1-3
	// (missing 2-3). cc(0)=cc(1)=2/3 (two triangles over 3 pairs);
	// cc(2)=cc(3)=1 (their single pair 0-1 is connected).
	g := graph.New(4, false)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(0, 3)
	g.AddEdge(1, 2)
	g.AddEdge(1, 3)
	res, err := Triangles(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != 2 {
		t.Fatalf("total = %d, want 2", res.Total)
	}
	for v, want := range []float64{2.0 / 3, 2.0 / 3, 1, 1} {
		if !almostEqual(res.Clustering[v], want, 1e-12) {
			t.Fatalf("cc[%d] = %v, want %v", v, res.Clustering[v], want)
		}
	}
	var ops seq.Ops
	per, _ := seq.Triangles(g, &ops)
	seqCC := seq.ClusteringCoefficients(g, per)
	for v := range seqCC {
		if !almostEqual(res.Clustering[v], seqCC[v], 1e-12) {
			t.Fatalf("cc[%d]: vc=%v seq=%v", v, res.Clustering[v], seqCC[v])
		}
	}
}

func TestTrianglesMessageBlowup(t *testing.T) {
	// §3.8: neighborhood exchange ships Θ(Σ d(v)²) data. On a dense
	// random graph the vertex-centric message+work volume must exceed
	// the sequential intersection cost by a growing factor... at least
	// verify the per-vertex receive volume exceeds degree (subgraph
	// view does not fit the d(v) budget).
	g := graph.Random(200, 3000, 9)
	res, err := Triangles(g, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.MaxRecvPerDeg < 2 {
		t.Fatalf("recv/deg = %v; expected neighborhood shipping to exceed degree budget",
			res.Stats.MaxRecvPerDeg)
	}
}

// --- Streaming union-find CC (§3.8 point 3) ---

func TestStreamingCCMatchesBFS(t *testing.T) {
	f := func(seed int64) bool {
		g := graph.Random(80, 100, seed)
		var o1, o2 seq.Ops
		got := seq.StreamingCC(g.N(), g.UndirectedEdges(), &o1)
		want := seq.Components(g, &o2)
		for v := range want {
			if got[v] != want[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// --- Label propagation communities (§3.8 point 4) ---

func TestLabelPropagationDisjointCliques(t *testing.T) {
	// Three disjoint cliques: LPA must find exactly the cliques.
	g := graph.New(15, false)
	for c := 0; c < 3; c++ {
		base := graph.VertexID(c * 5)
		for i := 0; i < 5; i++ {
			for j := i + 1; j < 5; j++ {
				g.AddEdge(base+graph.VertexID(i), base+graph.VertexID(j))
			}
		}
	}
	res, err := LabelPropagation(g, 0, Config{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 3; c++ {
		want := res.Label[c*5]
		for i := 0; i < 5; i++ {
			if res.Label[c*5+i] != want {
				t.Fatalf("clique %d split: %v", c, res.Label[c*5:c*5+5])
			}
		}
	}
	if res.Label[0] == res.Label[5] || res.Label[5] == res.Label[10] {
		t.Fatal("distinct cliques merged")
	}
	// Perfect 3-way split of 3 equal cliques: Q = 1 - 1/3.
	if !almostEqual(res.Modularity, 2.0/3, 1e-12) {
		t.Fatalf("modularity = %v, want 2/3", res.Modularity)
	}
}

func TestLabelPropagationTwoCommunities(t *testing.T) {
	// Two dense blobs joined by a single bridge.
	g := graph.New(40, false)
	addBlob := func(base graph.VertexID, n int, seed int64) {
		blob := graph.RandomConnected(n, n*3, seed)
		for _, e := range blob.UndirectedEdges() {
			g.AddEdge(base+e.U, base+e.V)
		}
	}
	addBlob(0, 20, 1)
	addBlob(20, 20, 2)
	g.AddEdge(19, 20)
	res, err := LabelPropagation(g, 0, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Modularity < 0.3 {
		t.Fatalf("modularity = %v; expected clear community structure", res.Modularity)
	}
}

func TestLabelPropagationDeterministicAcrossWorkers(t *testing.T) {
	g := graph.PreferentialAttachment(300, 3, 5)
	a, err := LabelPropagation(g, 0, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := LabelPropagation(g, 0, Config{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	for v := range a.Label {
		if a.Label[v] != b.Label[v] {
			t.Fatalf("vertex %d label differs across worker counts", v)
		}
	}
}

func TestLabelPropagationOscillationCap(t *testing.T) {
	// A single edge oscillates under synchronous LPA (each endpoint
	// adopts the other's label forever); the round cap must stop it.
	g := graph.Path(2)
	res, err := LabelPropagation(g, 8, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds > 10 {
		t.Fatalf("rounds = %d; oscillation not capped", res.Rounds)
	}
}

func TestModularityBounds(t *testing.T) {
	f := func(seed int64) bool {
		g := graph.Random(50, 150, seed)
		if g.M() == 0 {
			return true
		}
		res, err := LabelPropagation(g, 0, Config{Workers: 2})
		if err != nil {
			return false
		}
		return res.Modularity >= -0.5001 && res.Modularity <= 1.0001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestModularitySingletonAndWhole(t *testing.T) {
	g := graph.RandomConnected(30, 90, 4)
	// Everything in one community: Q = 1 - 1 = ... e_c/m = 1, (deg/2m)^2 = 1.
	one := make([]VertexID, g.N())
	if q := Modularity(g, one); !almostEqual(q, 0, 1e-12) {
		t.Fatalf("single-community modularity = %v, want 0", q)
	}
}

func TestLabelPropagationRecoversSBMCommunities(t *testing.T) {
	// Strong planted partition: LPA should recover the three blocks
	// (up to label naming) and score high modularity.
	g := graph.StochasticBlockModel(90, 3, 0.5, 0.01, 11)
	res, err := LabelPropagation(g, 0, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Modularity < 0.4 {
		t.Fatalf("modularity %v; planted partition not recovered", res.Modularity)
	}
	// Majority label per block must differ across blocks.
	major := func(lo, hi int) VertexID {
		counts := map[VertexID]int{}
		for v := lo; v < hi; v++ {
			counts[res.Label[v]]++
		}
		best, bestN := VertexID(-1), 0
		for l, c := range counts {
			if c > bestN {
				best, bestN = l, c
			}
		}
		if bestN*3 < 2*(hi-lo) {
			t.Fatalf("block [%d,%d) has no 2/3 majority label", lo, hi)
		}
		return best
	}
	a, b, c := major(0, 30), major(30, 60), major(60, 90)
	if a == b || b == c || a == c {
		t.Fatalf("blocks merged: labels %d %d %d", a, b, c)
	}
}

func TestKCoreOnWattsStrogatzLattice(t *testing.T) {
	// beta=0 ring lattice with k=2: every vertex has degree 4 and the
	// graph is 4-regular and 4-connected enough to be a full 4-core.
	g := graph.WattsStrogatz(64, 2, 0, 2)
	res, err := PrepareKCore(g, Config{})()
	if err != nil {
		t.Fatal(err)
	}
	var ops seq.Ops
	want := seq.KCore(g, &ops)
	for v := range want {
		if res.Core[v] != want[v] {
			t.Fatalf("core[%d]: vc=%d seq=%d", v, res.Core[v], want[v])
		}
	}
}
