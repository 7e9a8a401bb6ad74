package vc

import (
	"context"
	"errors"
	"reflect"
	goruntime "runtime"
	"testing"

	"vcgraph/internal/async"
	"vcgraph/internal/graph"
	rt "vcgraph/internal/runtime"
)

func asyncCC(t *testing.T, g *graph.Graph) []VertexID {
	t.Helper()
	labels, _, err := async.PrepareConnectedComponents(g, async.Config{})()
	if err != nil {
		t.Fatalf("async CC: %v", err)
	}
	return labels
}

func asyncSSSP(t *testing.T, g *graph.Graph, src VertexID) []float64 {
	t.Helper()
	dist, _, err := async.PrepareSSSP(g, src, async.Config{})()
	if err != nil {
		t.Fatalf("async SSSP: %v", err)
	}
	return dist
}

func mustMutate(t *testing.T, g *graph.Graph, muts ...graph.Mutation) {
	t.Helper()
	if _, err := g.ApplyMutations(muts); err != nil {
		t.Fatalf("ApplyMutations: %v", err)
	}
}

func ins(u, v VertexID, w float64) graph.Mutation {
	return graph.Mutation{Op: graph.InsertEdge, U: u, V: v, W: w}
}

func del(u, v VertexID) graph.Mutation {
	return graph.Mutation{Op: graph.DeleteEdge, U: u, V: v}
}

// TestIncrementalCCInsertDelete exercises the two structural directions:
// an insert merging two components, and the delete splitting them again
// (the case hash-min alone cannot repair — labels must be re-seeded).
func TestIncrementalCCInsertDelete(t *testing.T) {
	g := graph.New(6, false)
	for _, e := range [][2]VertexID{{0, 1}, {1, 2}, {3, 4}, {4, 5}} {
		g.AddEdge(e[0], e[1])
	}
	st, _, err := IncrementalCC(g, nil, IncConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Cold {
		t.Fatal("first run with no prior state should be cold")
	}
	if got := asyncCC(t, g); !reflect.DeepEqual(st.Labels, got) {
		t.Fatalf("cold labels %v != from-scratch %v", st.Labels, got)
	}

	mustMutate(t, g, ins(2, 3, 1))
	st2, _, err := IncrementalCC(g, st, IncConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if st2.Cold {
		t.Fatal("run with valid prior state should be warm")
	}
	if got := asyncCC(t, g); !reflect.DeepEqual(st2.Labels, got) {
		t.Fatalf("after insert: incremental %v != from-scratch %v", st2.Labels, got)
	}

	mustMutate(t, g, del(2, 3))
	st3, _, err := IncrementalCC(g, st2, IncConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if st3.Cold {
		t.Fatal("expected warm run after delete")
	}
	if got := asyncCC(t, g); !reflect.DeepEqual(st3.Labels, got) {
		t.Fatalf("after delete: incremental %v != from-scratch %v", st3.Labels, got)
	}
	if st3.Labels[3] != 3 || st3.Labels[0] != 0 {
		t.Fatalf("split not repaired: %v", st3.Labels)
	}
}

// TestIncrementalCCOutOfBandMutation: a mutation outside ApplyMutations
// poisons the log, so the next incremental run must detect the missing
// history and fall back to a cold recompute — and still be right.
func TestIncrementalCCOutOfBandMutation(t *testing.T) {
	g := graph.RandomConnected(16, 24, 5)
	st, _, err := IncrementalCC(g, nil, IncConfig{})
	if err != nil {
		t.Fatal(err)
	}
	g.AddEdge(0, 9) // bypasses the mutation log
	st2, _, err := IncrementalCC(g, st, IncConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Cold {
		t.Fatal("out-of-band mutation must force a cold run")
	}
	if got := asyncCC(t, g); !reflect.DeepEqual(st2.Labels, got) {
		t.Fatalf("cold fallback labels %v != from-scratch %v", st2.Labels, got)
	}
}

// TestIncrementalSSSPDeleteLengthens covers the hard direction for a
// label-correcting algorithm: deletions that lengthen distances and
// disconnect vertices, which only work via the invalidation closure.
func TestIncrementalSSSPDeleteLengthens(t *testing.T) {
	g := graph.New(4, false)
	g.AddWeightedEdge(0, 1, 1)
	g.AddWeightedEdge(1, 2, 1)
	g.AddWeightedEdge(0, 2, 1) // shortcut: dist[2] = 1
	g.AddWeightedEdge(2, 3, 1)
	st, _, err := IncrementalSSSP(g, 0, nil, IncConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if want := []float64{0, 1, 1, 2}; !reflect.DeepEqual(st.Dist, want) {
		t.Fatalf("cold dist %v, want %v", st.Dist, want)
	}

	// Deleting the shortcut lengthens 2 and 3.
	mustMutate(t, g, del(0, 2))
	st2, _, err := IncrementalSSSP(g, 0, st, IncConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if st2.Cold {
		t.Fatal("expected warm run")
	}
	if want := []float64{0, 1, 2, 3}; !reflect.DeepEqual(st2.Dist, want) {
		t.Fatalf("after shortcut delete: %v, want %v", st2.Dist, want)
	}
	if got := asyncSSSP(t, g, 0); !reflect.DeepEqual(st2.Dist, got) {
		t.Fatalf("incremental %v != from-scratch %v", st2.Dist, got)
	}

	// Disconnect vertex 3 entirely: its distance must match the async
	// engine's unreachable sentinel bit-for-bit.
	mustMutate(t, g, del(2, 3))
	st3, _, err := IncrementalSSSP(g, 0, st2, IncConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if st3.Dist[3] != incInf {
		t.Fatalf("disconnected vertex dist = %v, want sentinel", st3.Dist[3])
	}
	if got := asyncSSSP(t, g, 0); !reflect.DeepEqual(st3.Dist, got) {
		t.Fatalf("incremental %v != from-scratch %v", st3.Dist, got)
	}

	// Reconnect cheaper than ever.
	mustMutate(t, g, ins(0, 3, 0.5))
	st4, _, err := IncrementalSSSP(g, 0, st3, IncConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if got := asyncSSSP(t, g, 0); !reflect.DeepEqual(st4.Dist, got) {
		t.Fatalf("incremental %v != from-scratch %v", st4.Dist, got)
	}
	if st4.Dist[3] != 0.5 {
		t.Fatalf("dist[3] = %v, want 0.5", st4.Dist[3])
	}
}

// TestIncrementalSSSPSourceChange: prior state for a different source
// must not be reused.
func TestIncrementalSSSPSourceChange(t *testing.T) {
	g := graph.RandomConnected(12, 20, 7)
	graph.RandomWeights(g, 7)
	st, _, err := IncrementalSSSP(g, 0, nil, IncConfig{})
	if err != nil {
		t.Fatal(err)
	}
	st2, _, err := IncrementalSSSP(g, 3, st, IncConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Cold {
		t.Fatal("prior state for source 0 reused for source 3")
	}
	if got := asyncSSSP(t, g, 3); !reflect.DeepEqual(st2.Dist, got) {
		t.Fatalf("incremental %v != from-scratch %v", st2.Dist, got)
	}
}

// TestIncrementalDirectedRejected: the worklist update rules for CC and
// SSSP pull over out-spans, which is only the full neighborhood on
// undirected graphs.
func TestIncrementalDirectedRejected(t *testing.T) {
	g := graph.New(3, true)
	g.AddEdge(0, 1)
	if _, _, err := IncrementalCC(g, nil, IncConfig{}); !errors.Is(err, ErrIncrementalDirected) {
		t.Fatalf("CC on directed graph: err = %v", err)
	}
	if _, _, err := IncrementalSSSP(g, 0, nil, IncConfig{}); !errors.Is(err, ErrIncrementalDirected) {
		t.Fatalf("SSSP on directed graph: err = %v", err)
	}
}

// TestIncrementalPageRankWarmEqualsCold: the memoized warm start must be
// byte-identical to a cold fixed-K recompute on the mutated graph, and
// must do strictly less gather work.
func TestIncrementalPageRankWarmEqualsCold(t *testing.T) {
	const alpha, k = 0.85, 15
	g := graph.RandomConnected(48, 120, 11)
	cold, _, err := PrepareIncrementalPageRank(g, alpha, k, nil, IncConfig{})()
	if err != nil {
		t.Fatal(err)
	}
	if !cold.Cold {
		t.Fatal("first run should be cold")
	}

	// Mutate: one insert, one delete of a known base edge.
	c := g.Pin()
	var du, dv VertexID
	found := false
	c.ForEachOut(2, func(v VertexID, _ float64) {
		if !found {
			du, dv, found = 2, v, true
		}
	})
	g.Unpin(c)
	if !found {
		t.Fatal("vertex 2 has no edges")
	}
	mustMutate(t, g, ins(0, 40, 1), del(du, dv))

	warm, wst, err := PrepareIncrementalPageRank(g, alpha, k, cold, IncConfig{})()
	if err != nil {
		t.Fatal(err)
	}
	if warm.Cold {
		t.Fatal("expected warm run")
	}
	scratch, cst, err := PrepareIncrementalPageRank(g, alpha, k, nil, IncConfig{})()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warm.Hist, scratch.Hist) {
		t.Fatal("warm history differs from cold recompute")
	}
	if wst.TotalWork >= cst.TotalWork {
		t.Fatalf("warm run gathered %d edges, cold %d: no incremental savings", wst.TotalWork, cst.TotalWork)
	}
}

// TestIncrementalPageRankPrepareAllocatesNoHistory: the rank history
// grows one row per superstep, so preparing a run with a huge K costs
// no memory up front (a K-sized row table would be 100 MB here).
func TestIncrementalPageRankPrepareAllocatesNoHistory(t *testing.T) {
	g := graph.Path(8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	run := PrepareIncrementalPageRank(g, 0.85, 1<<22, nil, IncConfig{RunEnv: rt.RunEnv{Ctx: ctx}})
	goruntime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("prepare allocated %d bytes", grew)
	}
	if _, _, err := run(); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run: err = %v", err)
	}
}

// TestIncrementalPageRankParamMismatch: changed alpha or K invalidates
// the memoized history.
func TestIncrementalPageRankParamMismatch(t *testing.T) {
	g := graph.RandomConnected(20, 40, 13)
	st, _, err := PrepareIncrementalPageRank(g, 0.85, 10, nil, IncConfig{})()
	if err != nil {
		t.Fatal(err)
	}
	mustMutate(t, g, ins(0, 10, 1))
	for _, tc := range []struct {
		name  string
		alpha float64
		k     int
	}{{"alpha", 0.9, 10}, {"k", 0.85, 12}} {
		got, _, err := PrepareIncrementalPageRank(g, tc.alpha, tc.k, st, IncConfig{})()
		if err != nil {
			t.Fatal(err)
		}
		if !got.Cold {
			t.Errorf("%s mismatch reused stale history", tc.name)
		}
	}
}

// TestIncrementalPageRankDirected: PageRank has no undirected
// restriction — the warm path must track directed in/out asymmetry.
func TestIncrementalPageRankDirected(t *testing.T) {
	const alpha, k = 0.85, 12
	g := graph.New(8, true)
	for _, e := range [][2]VertexID{{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}, {4, 5}, {5, 3}, {6, 0}, {7, 6}, {3, 7}} {
		g.AddEdge(e[0], e[1])
	}
	cold, _, err := PrepareIncrementalPageRank(g, alpha, k, nil, IncConfig{})()
	if err != nil {
		t.Fatal(err)
	}
	mustMutate(t, g, ins(1, 5, 1), del(2, 3))
	warm, _, err := PrepareIncrementalPageRank(g, alpha, k, cold, IncConfig{})()
	if err != nil {
		t.Fatal(err)
	}
	if warm.Cold {
		t.Fatal("expected warm run")
	}
	scratch, _, err := PrepareIncrementalPageRank(g, alpha, k, nil, IncConfig{})()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warm.Hist, scratch.Hist) {
		t.Fatal("directed warm history differs from cold recompute")
	}
}

// TestIncrementalWorkSavings: on a larger graph with a small delta, the
// warm CC/SSSP runs must update far fewer vertices than cold runs.
func TestIncrementalWorkSavings(t *testing.T) {
	g := graph.RandomConnected(400, 1200, 17)
	graph.RandomWeights(g, 17)
	cc, ccCold, err := IncrementalCC(g, nil, IncConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ss, ssCold, err := IncrementalSSSP(g, 0, nil, IncConfig{})
	if err != nil {
		t.Fatal(err)
	}
	mustMutate(t, g, ins(5, 300, 2))
	cc2, ccWarm, err := IncrementalCC(g, cc, IncConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ss2, ssWarm, err := IncrementalSSSP(g, 0, ss, IncConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if cc2.Cold || ss2.Cold {
		t.Fatal("expected warm runs")
	}
	if got := asyncCC(t, g); !reflect.DeepEqual(cc2.Labels, got) {
		t.Fatal("warm CC wrong")
	}
	if got := asyncSSSP(t, g, 0); !reflect.DeepEqual(ss2.Dist, got) {
		t.Fatal("warm SSSP wrong")
	}
	if w, c := ccWarm.TotalWork, ccCold.TotalWork; w*4 >= c {
		t.Errorf("warm CC did %d updates vs cold %d: expected <25%%", w, c)
	}
	if w, c := ssWarm.TotalWork, ssCold.TotalWork; w*4 >= c {
		t.Errorf("warm SSSP did %d updates vs cold %d: expected <25%%", w, c)
	}
}
