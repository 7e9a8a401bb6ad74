package vc

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"vcgraph/internal/async"
	"vcgraph/internal/blockcentric"
	"vcgraph/internal/gas"
	"vcgraph/internal/graph"
	"vcgraph/internal/pregel"
	rt "vcgraph/internal/runtime"
)

// Differential mutation-script suite: seeded random insert/delete
// batches interleaved with queries. At every query point the
// incremental answer (warm-started from the previous query's state)
// must be byte-identical — values and verdicts — to a from-scratch run
// on the mutated graph, across the engine × partitioner × worker
// matrix, and must stay byte-identical when the incremental run itself
// executes under crash/rollback fault injection.
//
// CC and SSSP have schedule-free fixpoints, so every engine agrees on
// the exact floats (SSSP modulo the unreachable sentinel: the async
// engine and the incremental programs use 1e308 where the barrier
// engines use +Inf — both mean "unreachable" and the verdicts agree).
// PageRank's low bits are schedule-dependent, so its byte-identity
// baseline is the canonical memoized recompute (a cold incremental
// run), with a tolerance check against the barrier engines.

// scriptRig drives one mutation script: it owns the evolving graph and
// a live-edge list the generator draws delete targets from, so every
// generated batch is valid by construction.
type scriptRig struct {
	t    *testing.T
	g    *graph.Graph
	rng  *rand.Rand
	live [][3]float64 // {u, v, w}; a multiset snapshot of logical edges
	// mirror, when set, receives every batch the rig applies — a twin
	// graph evolving in lockstep (the packed-encoding differential).
	mirror *graph.Graph
}

func newScriptRig(t *testing.T, n, m int, seed int64) *scriptRig {
	g := graph.RandomConnected(n, m, seed)
	graph.RandomWeights(g, seed+1000)
	r := &scriptRig{t: t, g: g, rng: rand.New(rand.NewSource(seed))}
	c := g.Pin()
	defer g.Unpin(c)
	for u := 0; u < n; u++ {
		c.ForEachOut(VertexID(u), func(v VertexID, w float64) {
			if VertexID(u) <= v {
				r.live = append(r.live, [3]float64{float64(u), float64(v), w})
			}
		})
	}
	return r
}

// step applies one batch of k random mutations (inserts biased 55/45,
// deletes drawn from the live multiset so the batch always validates).
func (r *scriptRig) step(k int) {
	n := r.g.N()
	var muts []graph.Mutation
	for i := 0; i < k; i++ {
		if r.rng.Intn(100) < 55 || len(r.live) == 0 {
			u := VertexID(r.rng.Intn(n))
			v := VertexID(r.rng.Intn(n))
			if u == v {
				v = (v + 1) % VertexID(n)
			}
			w := 0.5 + 3*r.rng.Float64()
			muts = append(muts, graph.Mutation{Op: graph.InsertEdge, U: u, V: v, W: w})
			r.live = append(r.live, [3]float64{float64(u), float64(v), w})
		} else {
			j := r.rng.Intn(len(r.live))
			e := r.live[j]
			muts = append(muts, graph.Mutation{Op: graph.DeleteEdge, U: VertexID(e[0]), V: VertexID(e[1])})
			r.live = append(r.live[:j], r.live[j+1:]...)
		}
	}
	if _, err := r.g.ApplyMutations(muts); err != nil {
		r.t.Fatalf("ApplyMutations(%v): %v", muts, err)
	}
	if r.mirror != nil {
		if _, err := r.mirror.ApplyMutations(muts); err != nil {
			r.t.Fatalf("mirror ApplyMutations(%v): %v", muts, err)
		}
	}
}

// Verdict helpers mirroring internal/service's query output, so the
// suite proves verdict strings — not just raw values — are identical.

func prVerdictOf(ranks []float64) string {
	best, bestV := -1.0, 0
	for v, r := range ranks {
		if r > best {
			best, bestV = r, v
		}
	}
	return fmt.Sprintf("top vertex %d with rank %.6f", bestV, best)
}

func ssspVerdictOf(dist []float64, src VertexID) string {
	reached := 0
	for _, d := range dist {
		if d < 1e300 {
			reached++
		}
	}
	return fmt.Sprintf("%d vertices reachable from %d", reached, src)
}

func ccVerdictOf(labels []VertexID) string {
	set := make(map[VertexID]bool, 16)
	for _, l := range labels {
		set[l] = true
	}
	return fmt.Sprintf("%d components", len(set))
}

// scratchCell is one from-scratch engine configuration.
type scratchCell struct {
	name  string
	exact bool // distances byte-identical to the incremental run (same sentinel)
	cc    func(g *graph.Graph) ([]VertexID, error)
	sssp  func(g *graph.Graph, src VertexID) ([]float64, error)
}

func scratchMatrix() []scratchCell {
	var cells []scratchCell
	for _, p := range []struct {
		name string
		part pregel.Partitioner
	}{{"hash", nil}, {"range", pregel.PartitionRange}, {"degree", pregel.PartitionDegreeBalanced}} {
		for _, w := range []int{1, 3} {
			part, w := p.part, w
			cells = append(cells, scratchCell{
				name: fmt.Sprintf("pregel/%s/w%d", p.name, w),
				cc: func(g *graph.Graph) ([]VertexID, error) {
					res, err := PrepareHashMinCC(g, Config{Workers: w, Partition: part})()
					if err != nil {
						return nil, err
					}
					return res.Color, nil
				},
				sssp: func(g *graph.Graph, src VertexID) ([]float64, error) {
					res, err := PrepareSSSP(g, src, Config{Workers: w, Partition: part})()
					if err != nil {
						return nil, err
					}
					return res.Dist, nil
				},
			})
		}
	}
	for _, w := range []int{1, 2} {
		w := w
		cells = append(cells, scratchCell{
			name: fmt.Sprintf("gas/w%d", w),
			cc: func(g *graph.Graph) ([]VertexID, error) {
				labels, _, err := gas.PrepareConnectedComponents(g, gas.Config{Workers: w})()
				return labels, err
			},
			sssp: func(g *graph.Graph, src VertexID) ([]float64, error) {
				dist, _, err := gas.PrepareSSSP(g, src, gas.Config{Workers: w})()
				return dist, err
			},
		})
	}
	cells = append(cells, scratchCell{
		name: "async", exact: true,
		cc: func(g *graph.Graph) ([]VertexID, error) {
			labels, _, err := async.PrepareConnectedComponents(g, async.Config{})()
			return labels, err
		},
		sssp: func(g *graph.Graph, src VertexID) ([]float64, error) {
			dist, _, err := async.PrepareSSSP(g, src, async.Config{})()
			return dist, err
		},
	})
	for _, b := range []int{2, 3} {
		b := b
		cells = append(cells, scratchCell{
			name: fmt.Sprintf("blockcentric/b%d", b),
			cc: func(g *graph.Graph) ([]VertexID, error) {
				res, err := blockcentric.PrepareConnectedComponents(g, blockcentric.Config{Blocks: b})()
				if err != nil {
					return nil, err
				}
				return res.Color, nil
			},
			sssp: func(g *graph.Graph, src VertexID) ([]float64, error) {
				res, err := blockcentric.PrepareSSSP(g, src, blockcentric.Config{Blocks: b})()
				if err != nil {
					return nil, err
				}
				return res.Dist, nil
			},
		})
	}
	return cells
}

// checkSSSPAgainst compares an incremental distance vector with a
// from-scratch engine run: reachable values byte-identical; for engines
// with a different unreachable sentinel (+Inf vs 1e308), unreachability
// itself must agree.
func checkSSSPAgainst(t *testing.T, cell scratchCell, inc, scratch []float64) {
	t.Helper()
	if cell.exact {
		if !reflect.DeepEqual(inc, scratch) {
			t.Fatalf("%s: incremental SSSP differs from from-scratch run", cell.name)
		}
		return
	}
	if len(inc) != len(scratch) {
		t.Fatalf("%s: length mismatch", cell.name)
	}
	for v := range inc {
		iu, su := inc[v] >= 1e300, math.IsInf(scratch[v], 1)
		if iu != su {
			t.Fatalf("%s: vertex %d reachability differs: inc %v scratch %v", cell.name, v, inc[v], scratch[v])
		}
		if !iu && inc[v] != scratch[v] {
			t.Fatalf("%s: vertex %d dist %v != from-scratch %v", cell.name, v, inc[v], scratch[v])
		}
	}
}

// queryAll runs one query point: advance the incremental states and
// compare values + verdicts against the given from-scratch cells.
type incStates struct {
	cc   *IncCCState
	sssp *IncSSSPState
	pr   *IncPRState
}

const (
	scriptAlpha = 0.85
	scriptK     = 12
	scriptSrc   = VertexID(0)
)

func (st *incStates) query(t *testing.T, g *graph.Graph, cells []scratchCell, wantWarm bool, cfg IncConfig) {
	t.Helper()
	cc, _, err := IncrementalCC(g, st.cc, cfg)
	if err != nil {
		t.Fatalf("incremental CC: %v", err)
	}
	ss, _, err := IncrementalSSSP(g, scriptSrc, st.sssp, cfg)
	if err != nil {
		t.Fatalf("incremental SSSP: %v", err)
	}
	pr, _, err := PrepareIncrementalPageRank(g, scriptAlpha, scriptK, st.pr, cfg)()
	if err != nil {
		t.Fatalf("incremental PageRank: %v", err)
	}
	if wantWarm && (cc.Cold || ss.Cold || pr.Cold) {
		t.Fatalf("expected warm runs: cc=%v sssp=%v pr=%v", cc.Cold, ss.Cold, pr.Cold)
	}
	st.cc, st.sssp, st.pr = cc, ss, pr

	for _, cell := range cells {
		labels, err := cell.cc(g)
		if err != nil {
			t.Fatalf("%s CC: %v", cell.name, err)
		}
		if !reflect.DeepEqual(cc.Labels, labels) {
			t.Fatalf("%s: incremental CC labels differ from from-scratch run", cell.name)
		}
		if iv, sv := ccVerdictOf(cc.Labels), ccVerdictOf(labels); iv != sv {
			t.Fatalf("%s: CC verdict %q != %q", cell.name, iv, sv)
		}
		dist, err := cell.sssp(g, scriptSrc)
		if err != nil {
			t.Fatalf("%s SSSP: %v", cell.name, err)
		}
		checkSSSPAgainst(t, cell, ss.Dist, dist)
		if iv, sv := ssspVerdictOf(ss.Dist, scriptSrc), ssspVerdictOf(dist, scriptSrc); iv != sv {
			t.Fatalf("%s: SSSP verdict %q != %q", cell.name, iv, sv)
		}
	}

	// PageRank byte-identity baseline: the canonical cold recompute.
	scratch, _, err := PrepareIncrementalPageRank(g, scriptAlpha, scriptK, nil, cfg)()
	if err != nil {
		t.Fatalf("cold PageRank: %v", err)
	}
	if !reflect.DeepEqual(pr.Hist, scratch.Hist) {
		t.Fatal("incremental PageRank history differs from cold recompute")
	}
	if iv, sv := prVerdictOf(pr.Ranks()), prVerdictOf(scratch.Ranks()); iv != sv {
		t.Fatalf("PageRank verdict %q != %q", iv, sv)
	}
	// Cross-engine tolerance check (summation order differs).
	res, err := PreparePageRank(g, scriptAlpha, scriptK, Config{Workers: 2})()
	if err != nil {
		t.Fatalf("pregel PageRank: %v", err)
	}
	for v, r := range pr.Ranks() {
		if math.Abs(r-res.Ranks[v]) > 1e-9 {
			t.Fatalf("vertex %d: incremental rank %v vs pregel %v", v, r, res.Ranks[v])
		}
	}
}

// TestMutationScriptMatrix: a few scripts checked at every query point
// against the full engine × partitioner × worker matrix.
func TestMutationScriptMatrix(t *testing.T) {
	cells := scratchMatrix()
	for seed := int64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rig := newScriptRig(t, 28, 56, seed)
			st := &incStates{}
			st.query(t, rig.g, cells, false, IncConfig{})
			for step := 1; step <= 9; step++ {
				rig.step(1 + rig.rng.Intn(5))
				if step%3 == 0 {
					st.query(t, rig.g, cells, true, IncConfig{})
				}
			}
		})
	}
}

// TestMutationScriptMany: one hundred seeded scripts with the cheap
// comparator (async engine — the byte-exact one — plus the canonical
// PageRank recompute) at every query point.
func TestMutationScriptMany(t *testing.T) {
	exact := []scratchCell{scratchMatrix()[8]} // async
	if exact[0].name != "async" || !exact[0].exact {
		t.Fatalf("matrix order changed: got %q", exact[0].name)
	}
	for seed := int64(1); seed <= 100; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rig := newScriptRig(t, 20, 40, seed)
			st := &incStates{}
			st.query(t, rig.g, exact, false, IncConfig{})
			for step := 1; step <= 6; step++ {
				rig.step(1 + rig.rng.Intn(4))
				if step%3 == 0 {
					st.query(t, rig.g, exact, true, IncConfig{})
				}
			}
		})
	}
}

// TestMutationScriptFaults: the incremental runs themselves execute
// under crash/rollback fault plans and must remain byte-identical to
// the fault-free incremental run (which the other suites tie to the
// from-scratch baseline).
func TestMutationScriptFaults(t *testing.T) {
	plans := []struct {
		name string
		ck   int
		plan func() *rt.FaultPlan
	}{
		{"crash-fresh", 0, func() *rt.FaultPlan { return rt.PlanOf(rt.Crash(1)) }},
		{"crash-checkpointed", 2, func() *rt.FaultPlan { return rt.PlanOf(rt.Crash(3)) }},
		{"drop-lane", 1, func() *rt.FaultPlan { return rt.PlanOf(rt.DropLane(1, 0, 0)) }},
		{"dup-lane", 0, func() *rt.FaultPlan { return rt.PlanOf(rt.DupLane(1, 0, 0)) }},
		{"corrupt-checkpoint", 1, func() *rt.FaultPlan { return rt.PlanOf(rt.CorruptCheckpoint(2), rt.Crash(3)) }},
		{"seeded", 2, func() *rt.FaultPlan { return rt.NewFaultPlan(7) }},
	}
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rig := newScriptRig(t, 24, 48, seed)
			st := &incStates{}
			st.query(t, rig.g, nil, false, IncConfig{})
			for step := 1; step <= 6; step++ {
				rig.step(1 + rig.rng.Intn(4))
				if step%2 != 0 {
					continue
				}
				// Fault-free warm baselines from the current states.
				prior := *st
				st.query(t, rig.g, []scratchCell{scratchMatrix()[8]}, true, IncConfig{})
				for _, fp := range plans {
					fp := fp
					t.Run(fmt.Sprintf("step%d/%s", step, fp.name), func(t *testing.T) {
						cfg := IncConfig{RunEnv: rt.RunEnv{CheckpointEvery: fp.ck, Faults: fp.plan()}}
						cc, _, err := IncrementalCC(rig.g, prior.cc, cfg)
						if err != nil {
							t.Fatalf("faulted CC: %v", err)
						}
						if !reflect.DeepEqual(cc.Labels, st.cc.Labels) {
							t.Fatal("faulted incremental CC differs from fault-free run")
						}
						ss, _, err := IncrementalSSSP(rig.g, scriptSrc, prior.sssp, cfg)
						if err != nil {
							t.Fatalf("faulted SSSP: %v", err)
						}
						if !reflect.DeepEqual(ss.Dist, st.sssp.Dist) {
							t.Fatal("faulted incremental SSSP differs from fault-free run")
						}
						pr, _, err := PrepareIncrementalPageRank(rig.g, scriptAlpha, scriptK, prior.pr, cfg)()
						if err != nil {
							t.Fatalf("faulted PageRank: %v", err)
						}
						if !reflect.DeepEqual(pr.Hist, st.pr.Hist) {
							t.Fatal("faulted incremental PageRank differs from fault-free run")
						}
					})
				}
			}
		})
	}
}

// TestMutationScriptFaultsFire: deterministic evidence that fault
// injection actually exercises recovery on incremental runs — a cold
// run spans many epochs, so a crash at epoch boundary 1 must roll back.
func TestMutationScriptFaultsFire(t *testing.T) {
	g := graph.RandomConnected(64, 128, 9)
	st, stats, err := IncrementalCC(g, nil, IncConfig{RunEnv: rt.RunEnv{CheckpointEvery: 1, Faults: rt.PlanOf(rt.Crash(1))}})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Recovery.Rollbacks == 0 {
		t.Fatalf("crash plan fired no rollback: %+v", stats.Recovery)
	}
	if got := asyncCC(t, g); !reflect.DeepEqual(st.Labels, got) {
		t.Fatal("recovered cold CC differs from from-scratch run")
	}
	pr, prStats, err := PrepareIncrementalPageRank(g, 0.85, 10, nil, IncConfig{RunEnv: rt.RunEnv{CheckpointEvery: 1, Faults: rt.PlanOf(rt.Crash(3))}})()
	if err != nil {
		t.Fatal(err)
	}
	if prStats.Recovery.Rollbacks == 0 {
		t.Fatalf("PageRank crash plan fired no rollback: %+v", prStats.Recovery)
	}
	scratch, _, err := PrepareIncrementalPageRank(g, 0.85, 10, nil, IncConfig{})()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pr.Hist, scratch.Hist) {
		t.Fatal("recovered PageRank differs from fault-free run")
	}
}
