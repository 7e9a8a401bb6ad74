package async_test

import (
	"math"
	"testing"
	"testing/quick"
	. "vcgraph/internal/async"

	"vcgraph/internal/graph"
	"vcgraph/internal/seq"
	"vcgraph/internal/vc"
)

func TestAsyncCCMatchesBFS(t *testing.T) {
	f := func(seed int64) bool {
		g := graph.Random(80, 120, seed)
		labels, _, err := PrepareConnectedComponents(g, Config{})()
		if err != nil {
			return false
		}
		var ops seq.Ops
		want := seq.Components(g, &ops)
		for v := range want {
			if labels[v] != want[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestAsyncSSSPMatchesDijkstra(t *testing.T) {
	f := func(seed int64) bool {
		g := graph.RandomConnected(60, 180, seed)
		graph.RandomWeights(g, seed+3)
		dist, _, err := PrepareSSSP(g, 0, Config{})()
		if err != nil {
			return false
		}
		var ops seq.Ops
		want := seq.Dijkstra(g, 0, &ops)
		for v := range want {
			if math.IsInf(want[v], 1) {
				if dist[v] < 1e307 {
					return false
				}
				continue
			}
			if math.Abs(dist[v]-want[v]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestAsyncPropagatesWithinOneDrain(t *testing.T) {
	// On a path, one FIFO drain moves a label the whole way: total
	// updates stay O(n), versus Θ(n) supersteps of the BSP engine.
	g := graph.Path(4096)
	labels, ccRes, err := PrepareConnectedComponents(g, Config{})()
	if err != nil {
		t.Fatal(err)
	}
	for v, l := range labels {
		if l != 0 {
			t.Fatalf("vertex %d label %d", v, l)
		}
	}
	if updates := ccRes.Updates; updates > 5*g.N() {
		t.Fatalf("updates = %d; FIFO async should stay ~O(n) on a path", updates)
	}
	// Contrast: the synchronous engine needs Θ(n) supersteps.
	bsp, err := vc.PrepareHashMinCC(g, vc.Config{Workers: 4})()
	if err != nil {
		t.Fatal(err)
	}
	if bsp.Stats.NumSupersteps() < g.N()/2 {
		t.Fatalf("unexpectedly fast BSP run: %d supersteps", bsp.Stats.NumSupersteps())
	}
}

func TestAsyncUpdateCap(t *testing.T) {
	g := graph.Path(100)
	if _, _, err := PrepareConnectedComponents(g, Config{MaxUpdates: 5})(); err == nil {
		t.Fatal("expected update cap error")
	}
}

func TestAsyncEmptyAndSingleton(t *testing.T) {
	if labels, res, err := PrepareConnectedComponents(graph.New(0, false), Config{})(); err != nil || len(labels) != 0 || res.Updates != 0 {
		t.Fatalf("empty: %v %v %v", labels, res.Updates, err)
	}
	labels, _, err := PrepareConnectedComponents(graph.New(1, false), Config{})()
	if err != nil || labels[0] != 0 {
		t.Fatalf("singleton: %v %v", labels, err)
	}
}

func TestAsyncDeterministic(t *testing.T) {
	g := graph.RandomConnected(200, 500, 9)
	graph.RandomWeights(g, 10)
	a, ua, err := PrepareSSSP(g, 0, Config{})()
	if err != nil {
		t.Fatal(err)
	}
	b, ub, err := PrepareSSSP(g, 0, Config{})()
	if err != nil {
		t.Fatal(err)
	}
	if ua.Updates != ub.Updates {
		t.Fatalf("update counts differ: %d vs %d", ua.Updates, ub.Updates)
	}
	for v := range a {
		if a[v] != b[v] {
			t.Fatalf("vertex %d differs", v)
		}
	}
}

func TestAsyncPageRankMatchesPowerIteration(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.PreferentialAttachment(500, 3, 4),
		graph.RandomDirected(300, 1200, 6),
	} {
		ranks, prRes, err := PreparePageRank(g, 0.85, 1e-12, Config{})()
		if err != nil {
			t.Fatal(err)
		}
		var ops seq.Ops
		want := seq.PageRank(g, 0.85, 300, &ops)
		for v := range want {
			if math.Abs(ranks[v]-want[v]) > 1e-7 {
				t.Fatalf("vertex %d: async=%v seq=%v", v, ranks[v], want[v])
			}
		}
		if prRes.Updates == 0 {
			t.Fatal("no updates recorded")
		}
	}
}

func TestAsyncPageRankUpdateCountComparableToSync(t *testing.T) {
	// With a plain FIFO scheduler, Gauss–Seidel PageRank does about the
	// same number of vertex updates as synchronous power iteration (the
	// async model's big wins need residual-prioritized scheduling, or
	// show up on propagation problems like CC/SSSP — see
	// TestAsyncPropagatesWithinOneDrain). Pin the "comparable" claim.
	g := graph.PreferentialAttachment(2000, 3, 8)
	_, prRes2, err := PreparePageRank(g, 0.85, 1e-9, Config{})()
	if err != nil {
		t.Fatal(err)
	}
	_, iters, err2 := vc.PageRankConverge(g, 0.85, 1e-9, vc.Config{Workers: 2})
	if err2 != nil {
		t.Fatal(err2)
	}
	syncWork := iters * g.N()
	if updates := prRes2.Updates; updates > 2*syncWork || updates*4 < syncWork {
		t.Fatalf("async updates %d implausibly far from sync %d", updates, syncWork)
	}
}

func TestPrioritizedSSSPMatchesFIFO(t *testing.T) {
	// Correctness of the priority scheduler on assorted shapes.
	for _, g := range []*graph.Graph{
		graph.RandomConnected(400, 1600, 12),
		graph.PreferentialAttachment(500, 3, 4),
	} {
		graph.RandomWeights(g, 13)
		fifo, _, err := PrepareSSSP(g, 0, Config{})()
		if err != nil {
			t.Fatal(err)
		}
		prio, _, err := PrepareSSSP(g, 0, Config{Prioritized: true})()
		if err != nil {
			t.Fatal(err)
		}
		for v := range fifo {
			if math.Abs(fifo[v]-prio[v]) > 1e-9 {
				t.Fatalf("vertex %d: fifo=%v prio=%v", v, fifo[v], prio[v])
			}
		}
	}
}

func TestPrioritizedSSSPBeatsFIFOOnCorrectionHeavyGraphs(t *testing.T) {
	// On weighted high-diameter graphs, FIFO re-corrects distances as
	// cheaper long-hop paths arrive late; closest-first scheduling is
	// nearly label-setting and does measurably fewer updates.
	g := graph.Grid(30, 30)
	graph.RandomWeights(g, 3)
	_, fifoRes, err := PrepareSSSP(g, 0, Config{})()
	if err != nil {
		t.Fatal(err)
	}
	_, prioRes, err := PrepareSSSP(g, 0, Config{Prioritized: true})()
	if err != nil {
		t.Fatal(err)
	}
	prioUpdates, fifoUpdates := prioRes.Updates, fifoRes.Updates
	if prioUpdates*5 > fifoUpdates*4 { // require ≥20% fewer updates
		t.Fatalf("prioritized %d updates not clearly below FIFO %d", prioUpdates, fifoUpdates)
	}
}

func TestPrioritizedFallsBackWithoutPrioritizer(t *testing.T) {
	// ccProgram has no Priority: Prioritized must silently use FIFO.
	g := graph.Path(50)
	labels, _, err := PrepareConnectedComponents(g, Config{Prioritized: true})()
	if err != nil {
		t.Fatal(err)
	}
	for v, l := range labels {
		if l != 0 {
			t.Fatalf("vertex %d label %d", v, l)
		}
	}
}
