package vc

import (
	"math"
	"testing"

	"vcgraph/internal/graph"
	"vcgraph/internal/plan"
	"vcgraph/internal/runtime"
)

// dec builds a scripted decision for the differential tests.
func dec(step int, engine, partition, mode string) plan.Decision {
	return plan.Decision{Step: step, Plan: plan.Plan{Engine: engine, Partition: partition, Mode: mode}}
}

func partFor(engine string) string {
	if engine == plan.EngineBlockcentric {
		return plan.PartitionRange
	}
	return plan.PartitionHash
}

// autoCCGraph: a 48-cycle-free chain 1-2-...-47 closed onto vertex 0
// at the far end, plus an isolated vertex 48. The minimum label (0)
// sits at the end of the chain, so every engine needs many barriers:
// label propagation runs against the FIFO sweep order (async) and
// across all range blocks (block-centric).
func autoCCGraph() *graph.Graph {
	g := graph.New(49, false)
	for i := graph.VertexID(1); i < 47; i++ {
		g.AddEdge(i, i+1)
	}
	g.AddEdge(47, 0)
	return g
}

// autoSSSPGraph: the same long-diameter shape with varied weights.
func autoSSSPGraph() *graph.Graph {
	g := graph.New(48, false)
	for i := graph.VertexID(1); i < 47; i++ {
		g.AddWeightedEdge(i, i+1, float64(i%5+1)/2)
	}
	g.AddWeightedEdge(47, 0, 0.5)
	g.AddWeightedEdge(1, 30, 9.25)
	return g
}

// autoPRGraph: a directed ring with chords and a dangling vertex
// (13's ring edge removed), so ranks are non-uniform and the dangling
// leak is exercised.
func autoPRGraph() *graph.Graph {
	g := graph.New(30, true)
	for i := graph.VertexID(0); i < 30; i++ {
		if i == 13 {
			continue // dangling
		}
		g.AddEdge(i, (i+1)%30)
	}
	g.AddEdge(0, 5)
	g.AddEdge(0, 9)
	g.AddEdge(7, 2)
	g.AddEdge(21, 4)
	return g
}

// TestAutoHandoffDifferentialCC forces a mid-run engine switch at a
// barrier for every ordered engine pair and demands byte-identical
// labels to the native run. Pairs involving the sequential async
// engine run with a worker share of 1.
func TestAutoHandoffDifferentialCC(t *testing.T) {
	g := autoCCGraph()
	want, err := PrepareHashMinCC(g, Config{Workers: 1})()
	if err != nil {
		t.Fatalf("native: %v", err)
	}
	engines := []string{plan.EnginePregel, plan.EngineGAS, plan.EngineBlockcentric, plan.EngineAsync}
	for _, e1 := range engines {
		for _, e2 := range engines {
			if e1 == e2 {
				continue
			}
			name := e1 + "->" + e2
			t.Run(name, func(t *testing.T) {
				ccfg := Config{Workers: 4}
				if e1 == plan.EngineAsync || e2 == plan.EngineAsync {
					ccfg.CheckpointEvery = 16 // short async epochs: more barriers
				}
				cfg := AutoConfig{
					Config: ccfg,
					Script: []plan.Decision{
						dec(0, e1, partFor(e1), "auto"),
						dec(2, e2, partFor(e2), "auto"),
					},
				}
				res, ar, err := PrepareAutoHashMinCC(g, cfg)()
				if err != nil {
					t.Fatalf("auto: %v", err)
				}
				if ar.Segments != 2 || len(ar.Decisions) != 2 {
					t.Fatalf("switch did not fire: %d segments, %d decisions", ar.Segments, len(ar.Decisions))
				}
				for v := range want.Color {
					if res.Color[v] != want.Color[v] {
						t.Fatalf("color[%d] = %d, want %d", v, res.Color[v], want.Color[v])
					}
				}
			})
		}
	}
}

// TestAutoHandoffDifferentialSSSP is the SSSP half of the matrix:
// distances must be byte-identical (min-relaxation is exact float
// arithmetic) including +Inf for the unreachable vertex 0's island —
// and the async sentinel must be normalized away at the boundary.
func TestAutoHandoffDifferentialSSSP(t *testing.T) {
	g := autoSSSPGraph()
	src := graph.VertexID(0)
	want, err := PrepareSSSP(g, src, Config{Workers: 1})()
	if err != nil {
		t.Fatalf("native: %v", err)
	}
	engines := []string{plan.EnginePregel, plan.EngineGAS, plan.EngineBlockcentric, plan.EngineAsync}
	for _, e1 := range engines {
		for _, e2 := range engines {
			if e1 == e2 {
				continue
			}
			name := e1 + "->" + e2
			t.Run(name, func(t *testing.T) {
				ccfg := Config{Workers: 4}
				if e1 == plan.EngineAsync || e2 == plan.EngineAsync {
					ccfg.CheckpointEvery = 16
				}
				cfg := AutoConfig{
					Config: ccfg,
					Script: []plan.Decision{
						dec(0, e1, partFor(e1), "auto"),
						dec(2, e2, partFor(e2), "auto"),
					},
				}
				res, ar, err := PrepareAutoSSSP(g, src, cfg)()
				if err != nil {
					t.Fatalf("auto: %v", err)
				}
				if ar.Segments != 2 {
					t.Fatalf("switch did not fire: %d segments", ar.Segments)
				}
				for v := range want.Dist {
					if res.Dist[v] != want.Dist[v] && !(math.IsInf(res.Dist[v], 1) && math.IsInf(want.Dist[v], 1)) {
						t.Fatalf("dist[%d] = %v, want %v", v, res.Dist[v], want.Dist[v])
					}
				}
			})
		}
	}
}

// TestAutoHandoffDifferentialPageRank covers the canonical fold-order
// family: single-worker pregel, gas (any worker count), and
// block-centric push over a range partition produce bit-identical
// fixed-K ranks, so a forced switch between them must too — including
// the fold bookkeeping that splits k across segments.
func TestAutoHandoffDifferentialPageRank(t *testing.T) {
	g := autoPRGraph()
	const alpha, k = 0.85, 20
	want, err := PreparePageRank(g, alpha, k, Config{Workers: 1})()
	if err != nil {
		t.Fatalf("native: %v", err)
	}
	type cell struct {
		name    string
		workers int
		script  []plan.Decision
	}
	family := []string{plan.EnginePregel, plan.EngineGAS, plan.EngineBlockcentric}
	var cells []cell
	for _, e1 := range family {
		for _, e2 := range family {
			if e1 == e2 {
				continue
			}
			cells = append(cells, cell{
				name:    e1 + "->" + e2 + "/w1",
				workers: 1,
				script: []plan.Decision{
					dec(0, e1, partFor(e1), "auto"),
					dec(3, e2, partFor(e2), "auto"),
				},
			})
		}
	}
	// gas and block-centric fold in globally ascending source order at
	// any worker count; check one parallel cell each way.
	cells = append(cells,
		cell{name: "gas->blockcentric/w4", workers: 4, script: []plan.Decision{
			dec(0, plan.EngineGAS, "hash", "auto"),
			dec(3, plan.EngineBlockcentric, "range", "auto"),
		}},
		cell{name: "blockcentric->gas/w4", workers: 4, script: []plan.Decision{
			dec(0, plan.EngineBlockcentric, "range", "auto"),
			dec(3, plan.EngineGAS, "hash", "auto"),
		}},
	)
	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			res, ar, err := PrepareAutoPageRank(g, alpha, k, AutoConfig{Config: Config{Workers: c.workers}, Script: c.script})()
			if err != nil {
				t.Fatalf("auto: %v", err)
			}
			if ar.Segments != 2 {
				t.Fatalf("switch did not fire: %d segments", ar.Segments)
			}
			for v := range want.Ranks {
				if res.Ranks[v] != want.Ranks[v] {
					t.Fatalf("rank[%d] = %v, want %v (diff %g)", v, res.Ranks[v], want.Ranks[v], res.Ranks[v]-want.Ranks[v])
				}
			}
		})
	}
	// Multi-worker pregel folds per-lane, which reorders the sum:
	// tolerance comparison only.
	t.Run("pregel->gas/w4-tolerance", func(t *testing.T) {
		res, ar, err := PrepareAutoPageRank(g, alpha, k, AutoConfig{Config: Config{Workers: 4}, Script: []plan.Decision{
			dec(0, plan.EnginePregel, "hash", "auto"),
			dec(3, plan.EngineGAS, "hash", "auto"),
		}})()
		if err != nil {
			t.Fatalf("auto: %v", err)
		}
		if ar.Segments != 2 {
			t.Fatalf("switch did not fire: %d segments", ar.Segments)
		}
		for v := range want.Ranks {
			if d := math.Abs(res.Ranks[v] - want.Ranks[v]); d > 1e-12 {
				t.Fatalf("rank[%d] off by %g", v, d)
			}
		}
	})
}

// TestAutoDoubleHandoffPageRank chains two switches (three segments)
// through the whole canonical family and still demands bit-identical
// ranks.
func TestAutoDoubleHandoffPageRank(t *testing.T) {
	g := autoPRGraph()
	const alpha, k = 0.85, 20
	want, err := PreparePageRank(g, alpha, k, Config{Workers: 1})()
	if err != nil {
		t.Fatalf("native: %v", err)
	}
	res, ar, err := PrepareAutoPageRank(g, alpha, k, AutoConfig{Config: Config{Workers: 1}, Script: []plan.Decision{
		dec(0, plan.EnginePregel, "hash", "auto"),
		dec(3, plan.EngineGAS, "hash", "auto"),
		dec(9, plan.EngineBlockcentric, "range", "auto"),
	}})()
	if err != nil {
		t.Fatalf("auto: %v", err)
	}
	if ar.Segments != 3 {
		t.Fatalf("expected 3 segments, got %d", ar.Segments)
	}
	for v := range want.Ranks {
		if res.Ranks[v] != want.Ranks[v] {
			t.Fatalf("rank[%d] = %v, want %v", v, res.Ranks[v], want.Ranks[v])
		}
	}
}

// TestAutoHandoffUnderFaults injects crashes and lane faults into both
// segments of a forced switch; recovery must keep the results exact.
func TestAutoHandoffUnderFaults(t *testing.T) {
	faults := runtime.PlanOf(runtime.Crash(1), runtime.DupLane(2, 1, 0), runtime.DropLane(3, 0, 1))
	for _, pair := range [][2]string{
		{plan.EnginePregel, plan.EngineBlockcentric},
		{plan.EngineGAS, plan.EngineBlockcentric},
		{plan.EngineBlockcentric, plan.EnginePregel},
	} {
		t.Run("cc/"+pair[0]+"->"+pair[1], func(t *testing.T) {
			g := autoCCGraph()
			want, err := PrepareHashMinCC(g, Config{Workers: 1})()
			if err != nil {
				t.Fatalf("native: %v", err)
			}
			res, ar, err := PrepareAutoHashMinCC(g, AutoConfig{
				Config: Config{Workers: 4, RunEnv: runtime.RunEnv{CheckpointEvery: 2, Faults: faults}},
				Script: []plan.Decision{
					dec(0, pair[0], partFor(pair[0]), "auto"),
					dec(2, pair[1], partFor(pair[1]), "auto"),
				},
			})()
			if err != nil {
				t.Fatalf("auto: %v", err)
			}
			if ar.Segments != 2 {
				t.Fatalf("switch did not fire: %d segments", ar.Segments)
			}
			for v := range want.Color {
				if res.Color[v] != want.Color[v] {
					t.Fatalf("color[%d] = %d, want %d", v, res.Color[v], want.Color[v])
				}
			}
		})
		t.Run("sssp/"+pair[0]+"->"+pair[1], func(t *testing.T) {
			g := autoSSSPGraph()
			want, err := PrepareSSSP(g, 0, Config{Workers: 1})()
			if err != nil {
				t.Fatalf("native: %v", err)
			}
			res, ar, err := PrepareAutoSSSP(g, 0, AutoConfig{
				Config: Config{Workers: 4, RunEnv: runtime.RunEnv{CheckpointEvery: 2, Faults: faults}},
				Script: []plan.Decision{
					dec(0, pair[0], partFor(pair[0]), "auto"),
					dec(2, pair[1], partFor(pair[1]), "auto"),
				},
			})()
			if err != nil {
				t.Fatalf("auto: %v", err)
			}
			if ar.Segments != 2 {
				t.Fatalf("switch did not fire: %d segments", ar.Segments)
			}
			for v := range want.Dist {
				if res.Dist[v] != want.Dist[v] && !(math.IsInf(res.Dist[v], 1) && math.IsInf(want.Dist[v], 1)) {
					t.Fatalf("dist[%d] = %v, want %v", v, res.Dist[v], want.Dist[v])
				}
			}
		})
	}
}

// TestAutoPlannerInitialCC: on a regular chain (skew ~1) the planner
// must start block-centric, and the result must match the native run.
func TestAutoPlannerInitialCC(t *testing.T) {
	g := autoCCGraph()
	want, err := PrepareHashMinCC(g, Config{Workers: 1})()
	if err != nil {
		t.Fatalf("native: %v", err)
	}
	res, ar, err := PrepareAutoHashMinCC(g, AutoConfig{Config: Config{Workers: 4}})()
	if err != nil {
		t.Fatalf("auto: %v", err)
	}
	if got := ar.Decisions[0].Plan.Engine; got != plan.EngineBlockcentric {
		t.Fatalf("initial engine = %q, want blockcentric (skew %.2f)", got, ar.GraphStats.Skew)
	}
	for v := range want.Color {
		if res.Color[v] != want.Color[v] {
			t.Fatalf("color[%d] = %d, want %d", v, res.Color[v], want.Color[v])
		}
	}
}

// TestAutoPlannerMidRunSwitch: a hub-and-tail graph starts on pregel
// (high skew) but the long unweighted tail keeps the frontier narrow,
// so the planner must hand off to block-centric mid-run — and the
// distances must still be exact.
func TestAutoPlannerMidRunSwitch(t *testing.T) {
	g := graph.New(160, false)
	for i := graph.VertexID(0); i < 119; i++ {
		g.AddEdge(i, i+1)
	}
	for i := graph.VertexID(120); i < 160; i++ {
		g.AddEdge(0, i)
	}
	want, err := PrepareSSSP(g, 0, Config{Workers: 1})()
	if err != nil {
		t.Fatalf("native: %v", err)
	}
	res, ar, err := PrepareAutoSSSP(g, 0, AutoConfig{
		Config:  Config{Workers: 4},
		Planner: &plan.Planner{Every: 4},
	})()
	if err != nil {
		t.Fatalf("auto: %v", err)
	}
	if got := ar.Decisions[0].Plan.Engine; got != plan.EnginePregel {
		t.Fatalf("initial engine = %q, want pregel (skew %.2f)", got, ar.GraphStats.Skew)
	}
	if len(ar.Decisions) != 2 || ar.Decisions[1].Plan.Engine != plan.EngineBlockcentric {
		t.Fatalf("expected a mid-run handoff to blockcentric, got %+v", ar.Decisions)
	}
	if ar.Decisions[1].Step <= 0 {
		t.Fatalf("handoff step = %d, want > 0", ar.Decisions[1].Step)
	}
	for v := range want.Dist {
		if res.Dist[v] != want.Dist[v] {
			t.Fatalf("dist[%d] = %v, want %v", v, res.Dist[v], want.Dist[v])
		}
	}
}

// TestAutoPageRankPlanner: the planner keeps fixed-K PageRank on one
// engine (FixedK rules out switching) — GAS, whose gather-side folds
// sit in the canonical fold-order family — and the run matches the
// native pregel ranks at a single worker bit-for-bit.
func TestAutoPageRankPlanner(t *testing.T) {
	g := autoPRGraph()
	const alpha, k = 0.85, 15
	want, err := PreparePageRank(g, alpha, k, Config{Workers: 1})()
	if err != nil {
		t.Fatalf("native: %v", err)
	}
	res, ar, err := PrepareAutoPageRank(g, alpha, k, AutoConfig{Config: Config{Workers: 1}})()
	if err != nil {
		t.Fatalf("auto: %v", err)
	}
	if ar.Segments != 1 || len(ar.Decisions) != 1 {
		t.Fatalf("fixed-K run must not switch: %d segments, %+v", ar.Segments, ar.Decisions)
	}
	if got := ar.Decisions[0].Plan.Engine; got != plan.EngineGAS {
		t.Fatalf("initial engine = %q, want gas", got)
	}
	for v := range want.Ranks {
		if res.Ranks[v] != want.Ranks[v] {
			t.Fatalf("rank[%d] = %v, want %v", v, res.Ranks[v], want.Ranks[v])
		}
	}
}
