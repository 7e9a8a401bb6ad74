package vc

import (
	"testing"

	"vcgraph/internal/graph"
	rt "vcgraph/internal/runtime"
	"vcgraph/internal/seq"
)

// Cross-algorithm consistency: independent implementations that answer
// overlapping questions must agree with each other, not only with
// their own baselines.

func TestHashMinAndSVAgree(t *testing.T) {
	for _, seed := range []int64{1, 4, 9} {
		g := graph.Random(250, 300, seed)
		a, err := PrepareHashMinCC(g, Config{Workers: 4})()
		if err != nil {
			t.Fatal(err)
		}
		b, err := SVCC(g, Config{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		for v := range a.Color {
			if a.Color[v] != b.Color[v] {
				t.Fatalf("seed %d vertex %d: hashmin=%d sv=%d", seed, v, a.Color[v], b.Color[v])
			}
		}
	}
}

func TestDiameterConsistentWithSSSPOnUnitWeights(t *testing.T) {
	g := graph.RandomConnected(100, 300, 7) // unit weights
	diam, err := Diameter(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	sssp, err := PrepareSSSP(g, 0, Config{})()
	if err != nil {
		t.Fatal(err)
	}
	for v := range sssp.Dist {
		if int32(sssp.Dist[v]) != diam.Dist[v][0] {
			t.Fatalf("vertex %d: sssp=%v flood=%d", v, sssp.Dist[v], diam.Dist[v][0])
		}
	}
}

func TestAPSPSymmetricOnUndirected(t *testing.T) {
	g := graph.RandomConnected(80, 200, 3)
	res, err := Diameter(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g.N(); u++ {
		for v := 0; v < g.N(); v++ {
			if res.Dist[u][v] != res.Dist[v][u] {
				t.Fatalf("asymmetry: d(%d,%d)=%d d(%d,%d)=%d",
					u, v, res.Dist[u][v], v, u, res.Dist[v][u])
			}
		}
	}
}

func TestMCSTWeightMatchesAllThreeBaselines(t *testing.T) {
	g := graph.RandomConnected(150, 500, 8)
	graph.RandomWeights(g, 9)
	res, err := MCST(g, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	var o1, o2, o3 seq.Ops
	_, prim := seq.MSTPrim(g, &o1)
	_, kruskal := seq.MSTKruskal(g, &o2)
	_, radix := seq.MSTKruskalRadix(g, &o3)
	for name, w := range map[string]float64{"prim": prim, "kruskal": kruskal, "radix": radix} {
		if !almostEqual(res.Weight, w, 1e-12) {
			t.Fatalf("vc=%v %s=%v", res.Weight, name, w)
		}
	}
}

func TestSpanningForestConnectsLikeComponents(t *testing.T) {
	g := graph.Random(200, 180, 6)
	sv, err := SVCC(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	uf := seq.NewUnionFind(g.N())
	for _, e := range sv.TreeEdges {
		uf.Union(e.U, e.V)
	}
	for v := 0; v < g.N(); v++ {
		if uf.Find(VertexID(v)) != uf.Find(sv.Color[v]) {
			t.Fatalf("forest does not connect %d to its color %d", v, sv.Color[v])
		}
	}
}

func TestSCCRefinesWCC(t *testing.T) {
	g := graph.RandomDirected(150, 450, 5)
	scc, err := SCC(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	wcc, err := WCC(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Vertices in the same SCC are necessarily in the same WCC.
	for u := 0; u < g.N(); u++ {
		for v := u + 1; v < g.N(); v++ {
			if scc.Comp[u] == scc.Comp[v] && wcc.Color[u] != wcc.Color[v] {
				t.Fatalf("SCC joins %d,%d but WCC separates them", u, v)
			}
		}
	}
}

func TestBCCComponentsPartitionEdges(t *testing.T) {
	g := graph.RandomConnected(120, 170, 11)
	res, err := BCC(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.EdgeComp) != g.M() {
		t.Fatalf("labeled %d of %d edges", len(res.EdgeComp), g.M())
	}
	seen := map[int]bool{}
	for _, c := range res.EdgeComp {
		if c < 0 || c >= res.NumComponents {
			t.Fatalf("label %d out of range [0,%d)", c, res.NumComponents)
		}
		seen[c] = true
	}
	if len(seen) != res.NumComponents {
		t.Fatalf("%d labels used, NumComponents=%d", len(seen), res.NumComponents)
	}
}

func TestBetweennessSumIdentity(t *testing.T) {
	// Σ_v bc(v) over all sources equals Σ_{s≠t} (avg internal path
	// length) — cross-check against the seq implementation's total
	// rather than per-vertex only.
	g := graph.RandomConnected(70, 210, 13)
	res, err := Betweenness(g, nil, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	var ops seq.Ops
	want := seq.Betweenness(g, nil, &ops)
	var sumGot, sumWant float64
	for v := range want {
		sumGot += res.BC[v]
		sumWant += want[v]
	}
	if !almostEqual(sumGot, sumWant, 1e-9) {
		t.Fatalf("total betweenness %v vs %v", sumGot, sumWant)
	}
}

func TestEulerTourFeedsTraversal(t *testing.T) {
	// The traversal pipeline must be consistent with interval nesting:
	// for any parent p and child c, pre(p) < pre(c) and post(c) < post(p).
	tr := graph.RandomTree(120, 17)
	res, err := PrePostOrder(tr, 0, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var ops seq.Ops
	_, parent := seq.BFS(tr, 0, &ops)
	for v := 1; v < tr.N(); v++ {
		p := parent[v]
		// BFS parent is not necessarily the DFS parent, but ancestors
		// in the tree are the same set; check only direct tree edges.
		if res.Pre[p] > res.Pre[v] == (res.Post[p] > res.Post[v]) {
			t.Fatalf("edge (%d,%d): pre %d,%d post %d,%d violate nesting",
				p, v, res.Pre[p], res.Pre[v], res.Post[p], res.Post[v])
		}
	}
}

// --- Fault tolerance through the vc layer ---

func TestAlgorithmsSurviveInjectedFailure(t *testing.T) {
	g := graph.Path(128)
	clean, err := PrepareHashMinCC(g, Config{Workers: 3})()
	if err != nil {
		t.Fatal(err)
	}
	recovered, err := PrepareHashMinCC(g, Config{Workers: 3, RunEnv: rt.RunEnv{CheckpointEvery: 16, Faults: rt.PlanOf(rt.Crash(40))}})()
	if err != nil {
		t.Fatal(err)
	}
	for v := range clean.Color {
		if clean.Color[v] != recovered.Color[v] {
			t.Fatalf("vertex %d: clean=%d recovered=%d", v, clean.Color[v], recovered.Color[v])
		}
	}
	// Recovery re-executes work: the recovered run cannot be shorter.
	if recovered.Stats.NumSupersteps() < clean.Stats.NumSupersteps() {
		t.Fatal("recovered run shorter than clean run")
	}
}

func TestSVSurvivesInjectedFailureWithMasterState(t *testing.T) {
	// S-V has no Snapshotter; its master state (roundChanged, edges) is
	// rebuilt from aggregators... it is NOT, so checkpointing S-V would
	// need Snapshotter support. Verify instead that SSSP (stateless
	// master) recovers exactly.
	g := graph.Grid(12, 12)
	graph.RandomWeights(g, 3)
	clean, err := PrepareSSSP(g, 0, Config{Workers: 2})()
	if err != nil {
		t.Fatal(err)
	}
	rec, err := PrepareSSSP(g, 0, Config{Workers: 2, RunEnv: rt.RunEnv{CheckpointEvery: 8, Faults: rt.PlanOf(rt.Crash(20))}})()
	if err != nil {
		t.Fatal(err)
	}
	for v := range clean.Dist {
		if !almostEqual(clean.Dist[v], rec.Dist[v], 1e-12) {
			t.Fatalf("vertex %d: %v vs %v", v, clean.Dist[v], rec.Dist[v])
		}
	}
}

func TestSuperstepCapSurfacesAsError(t *testing.T) {
	g := graph.Path(512)
	if _, err := PrepareHashMinCC(g, Config{MaxSupersteps: 10})(); err == nil {
		t.Fatal("expected superstep-cap error")
	}
	if _, err := Diameter(graph.Path(64), Config{MaxSupersteps: 5}); err == nil {
		t.Fatal("expected superstep-cap error")
	}
}

// TestWorkerInvarianceAcrossAlgorithms pins that worker count never
// changes results for the deterministic integer-valued algorithms.
func TestWorkerInvarianceAcrossAlgorithms(t *testing.T) {
	und := graph.RandomConnected(150, 400, 31)
	dir := graph.RandomDirected(120, 480, 32)
	tr := graph.RandomTree(100, 33)

	t.Run("diameter", func(t *testing.T) {
		a, err := Diameter(und, Config{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Diameter(und, Config{Workers: 8})
		if err != nil {
			t.Fatal(err)
		}
		for v := range a.Ecc {
			if a.Ecc[v] != b.Ecc[v] {
				t.Fatalf("ecc[%d] differs", v)
			}
		}
	})
	t.Run("scc", func(t *testing.T) {
		a, err := SCC(dir, Config{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		b, err := SCC(dir, Config{Workers: 8})
		if err != nil {
			t.Fatal(err)
		}
		for v := range a.Comp {
			if a.Comp[v] != b.Comp[v] {
				t.Fatalf("comp[%d] differs", v)
			}
		}
	})
	t.Run("bcc", func(t *testing.T) {
		a, err := BCC(und, Config{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		b, err := BCC(und, Config{Workers: 8})
		if err != nil {
			t.Fatal(err)
		}
		if a.NumComponents != b.NumComponents {
			t.Fatalf("components differ: %d vs %d", a.NumComponents, b.NumComponents)
		}
	})
	t.Run("traversal", func(t *testing.T) {
		a, err := PrePostOrder(tr, 0, Config{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		b, err := PrePostOrder(tr, 0, Config{Workers: 8})
		if err != nil {
			t.Fatal(err)
		}
		for v := range a.Pre {
			if a.Pre[v] != b.Pre[v] || a.Post[v] != b.Post[v] {
				t.Fatalf("traversal numbers differ at %d", v)
			}
		}
	})
	t.Run("kcore", func(t *testing.T) {
		a, err := PrepareKCore(und, Config{Workers: 1})()
		if err != nil {
			t.Fatal(err)
		}
		b, err := PrepareKCore(und, Config{Workers: 8})()
		if err != nil {
			t.Fatal(err)
		}
		for v := range a.Core {
			if a.Core[v] != b.Core[v] {
				t.Fatalf("core[%d] differs", v)
			}
		}
	})
	t.Run("triangles", func(t *testing.T) {
		a, err := Triangles(und, Config{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Triangles(und, Config{Workers: 8})
		if err != nil {
			t.Fatal(err)
		}
		if a.Total != b.Total {
			t.Fatalf("totals differ: %d vs %d", a.Total, b.Total)
		}
	})
	t.Run("mcst", func(t *testing.T) {
		w := und.Clone()
		graph.RandomWeights(w, 34)
		a, err := MCST(w, Config{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		b, err := MCST(w, Config{Workers: 8})
		if err != nil {
			t.Fatal(err)
		}
		if a.Weight != b.Weight || len(a.Edges) != len(b.Edges) {
			t.Fatalf("MST differs: %v/%d vs %v/%d", a.Weight, len(a.Edges), b.Weight, len(b.Edges))
		}
	})
}
