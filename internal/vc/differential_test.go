package vc

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"vcgraph/internal/async"
	"vcgraph/internal/blockcentric"
	"vcgraph/internal/bsp"
	"vcgraph/internal/gas"
	"vcgraph/internal/graph"
	"vcgraph/internal/pregel"
	rt "vcgraph/internal/runtime"
	"vcgraph/internal/seq"
)

// Differential fault-injection suite: every workload runs on all four
// engines across worker counts and fault plans, and each faulted run
// must produce output byte-identical to the engine's fault-free run on
// the same configuration — which in turn must agree with the
// sequential oracle. Checkpoint/rollback is only correct if recovery
// is invisible in the output and visible in Stats.Recovery.

// engineCell is one engine × parallelism configuration of a workload.
// run executes it under the given fault plan and checkpoint interval
// and returns the output values (a comparable slice) plus stats.
type engineCell struct {
	name string
	// epochSaves marks engines that checkpoint after the barrier's
	// fault check (the asynchronous engine), which shifts which save a
	// corruption event lands on; see corruptPlan.
	epochSaves bool
	run        func(ck int, plan *rt.FaultPlan) (any, *bsp.Stats, error)
}

// faultCase is a fault plan plus what its firing must leave in
// Stats.Recovery.
type faultCase struct {
	name  string
	ck    int
	plan  func(cell engineCell) *rt.FaultPlan
	check func(t *testing.T, r bsp.Recovery)
}

func faultCases() []faultCase {
	return []faultCase{
		{
			// Crash with no checkpoint: recovery is a fresh restart.
			name: "crash-fresh", ck: 0,
			plan: func(engineCell) *rt.FaultPlan { return rt.PlanOf(rt.Crash(1)) },
			check: func(t *testing.T, r bsp.Recovery) {
				if r.Rollbacks == 0 || r.RedoneSupersteps == 0 {
					t.Errorf("crash without checkpoint: rollbacks=%d redone=%d, want both > 0", r.Rollbacks, r.RedoneSupersteps)
				}
			},
		},
		{
			// Crash with checkpoints: rollback to the last snapshot.
			name: "crash-checkpointed", ck: 2,
			plan: func(engineCell) *rt.FaultPlan { return rt.PlanOf(rt.Crash(3)) },
			check: func(t *testing.T, r bsp.Recovery) {
				if r.Rollbacks == 0 || r.CheckpointsSaved == 0 {
					t.Errorf("checkpointed crash: rollbacks=%d saved=%d, want both > 0", r.Rollbacks, r.CheckpointsSaved)
				}
			},
		},
		{
			// A message batch lost in transit forces a rollback.
			name: "drop-lane", ck: 2,
			plan: func(engineCell) *rt.FaultPlan { return rt.PlanOf(rt.DropLane(1, 0, 0)) },
			check: func(t *testing.T, r bsp.Recovery) {
				if r.DroppedLanes == 0 || r.Rollbacks == 0 {
					t.Errorf("dropped lane: dropped=%d rollbacks=%d, want both > 0", r.DroppedLanes, r.Rollbacks)
				}
			},
		},
		{
			// A duplicated batch is detected (or idempotently absorbed)
			// without a rollback.
			name: "dup-lane", ck: 0,
			plan: func(engineCell) *rt.FaultPlan { return rt.PlanOf(rt.DupLane(1, 0, 0)) },
			check: func(t *testing.T, r bsp.Recovery) {
				if r.DuplicatedLanes == 0 {
					t.Errorf("duplicated lane not detected: %+v", r)
				}
				if r.Rollbacks != 0 {
					t.Errorf("duplicate delivery forced a rollback: %+v", r)
				}
			},
		},
		{
			// The newest checkpoint is silently corrupt; recovery must
			// fall back to the previous generation (or a fresh start).
			name: "corrupt-checkpoint", ck: 1,
			plan: func(cell engineCell) *rt.FaultPlan {
				if cell.epochSaves {
					// Saves happen after the crash check at each epoch
					// barrier, so the newest save a crash at barrier 3
					// sees is the step-2 one.
					return rt.PlanOf(rt.CorruptCheckpoint(2), rt.Crash(3))
				}
				// Barrier engines save checkpoint k at the end of
				// superstep k-1, so crash(3) reads save(3).
				return rt.PlanOf(rt.CorruptCheckpoint(3), rt.Crash(3))
			},
			check: func(t *testing.T, r bsp.Recovery) {
				if r.CorruptedCheckpoints == 0 || r.Rollbacks == 0 {
					t.Errorf("corrupt checkpoint: corrupted=%d rollbacks=%d, want both > 0", r.CorruptedCheckpoints, r.Rollbacks)
				}
			},
		},
	}
}

// runDifferential drives one workload's cells through the fault-case
// matrix plus seeded random plans: the fault-free baseline must match
// the oracle, and every faulted run must match the baseline exactly.
func runDifferential(t *testing.T, cells []engineCell, checkOracle func(t *testing.T, cell string, values any)) {
	for _, cell := range cells {
		t.Run(cell.name, func(t *testing.T) {
			base, stats, err := cell.run(0, nil)
			if err != nil {
				t.Fatalf("fault-free run: %v", err)
			}
			if stats.Recovery.Faulted() {
				t.Fatalf("fault-free run reports recovery activity: %+v", stats.Recovery)
			}
			checkOracle(t, cell.name, base)

			for _, fc := range faultCases() {
				t.Run(fc.name, func(t *testing.T) {
					got, st, err := cell.run(fc.ck, fc.plan(cell))
					if err != nil {
						t.Fatalf("faulted run: %v", err)
					}
					if !reflect.DeepEqual(got, base) {
						t.Fatalf("faulted output differs from fault-free run\nrecovery: %+v", st.Recovery)
					}
					fc.check(t, st.Recovery)
				})
			}

			// Seeded random plans: whatever mix a seed generates, the
			// output must not change.
			for seed := int64(1); seed <= 4; seed++ {
				t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
					got, st, err := cell.run(2, rt.NewFaultPlan(seed))
					if err != nil {
						t.Fatalf("seeded run: %v", err)
					}
					if !reflect.DeepEqual(got, base) {
						t.Fatalf("seed %d output differs from fault-free run\nrecovery: %+v", seed, st.Recovery)
					}
				})
			}
		})
	}
}

func TestDifferentialConnectedComponents(t *testing.T) {
	g := graph.Grid(12, 12) // diameter 22: every fault plan fires
	var cells []engineCell
	for _, p := range []struct {
		name string
		part pregel.Partitioner
	}{{"hash", nil}, {"range", pregel.PartitionRange}} {
		for _, w := range []int{1, 3} {
			part, w := p.part, w
			cells = append(cells, engineCell{
				name: fmt.Sprintf("pregel/%s/w%d", p.name, w),
				run: func(ck int, plan *rt.FaultPlan) (any, *bsp.Stats, error) {
					res, err := PrepareHashMinCC(g, Config{Workers: w, Partition: part, RunEnv: rt.RunEnv{CheckpointEvery: ck, Faults: plan}})()
					if err != nil {
						return nil, nil, err
					}
					return res.Color, res.Stats, nil
				},
			})
		}
	}
	for _, w := range []int{1, 3} {
		w := w
		cells = append(cells, engineCell{
			name: fmt.Sprintf("gas/w%d", w),
			run: func(ck int, plan *rt.FaultPlan) (any, *bsp.Stats, error) {
				labels, res, err := gas.PrepareConnectedComponents(g, gas.Config{Workers: w, RunEnv: rt.RunEnv{CheckpointEvery: ck, Faults: plan}})()
				if err != nil {
					return nil, nil, err
				}
				return labels, res.Stats, nil
			},
		})
	}
	cells = append(cells, engineCell{
		name: "async", epochSaves: true,
		run: func(ck int, plan *rt.FaultPlan) (any, *bsp.Stats, error) {
			labels, res, err := async.PrepareConnectedComponents(g, async.Config{RunEnv: rt.RunEnv{CheckpointEvery: ck, Faults: plan}})()
			if err != nil {
				return nil, nil, err
			}
			return labels, res.Stats, nil
		},
	})
	for _, b := range []int{2, 3} {
		b := b
		cells = append(cells, engineCell{
			name: fmt.Sprintf("blockcentric/b%d", b),
			run: func(ck int, plan *rt.FaultPlan) (any, *bsp.Stats, error) {
				res, err := blockcentric.PrepareConnectedComponents(g, blockcentric.Config{Blocks: b, RunEnv: rt.RunEnv{CheckpointEvery: ck, Faults: plan}})()
				if err != nil {
					return nil, nil, err
				}
				return res.Color, res.Stats, nil
			},
		})
	}

	var ops seq.Ops
	want := seq.Components(g, &ops)
	runDifferential(t, cells, func(t *testing.T, cell string, values any) {
		got := values.([]VertexID)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s disagrees with sequential oracle", cell)
		}
	})
}

func TestDifferentialSSSP(t *testing.T) {
	g := graph.Grid(12, 12)
	graph.RandomWeights(g, 3)
	const src = 0
	var cells []engineCell
	for _, w := range []int{1, 3} {
		w := w
		cells = append(cells, engineCell{
			name: fmt.Sprintf("pregel/w%d", w),
			run: func(ck int, plan *rt.FaultPlan) (any, *bsp.Stats, error) {
				res, err := PrepareSSSP(g, src, Config{Workers: w, RunEnv: rt.RunEnv{CheckpointEvery: ck, Faults: plan}})()
				if err != nil {
					return nil, nil, err
				}
				return res.Dist, res.Stats, nil
			},
		})
		cells = append(cells, engineCell{
			name: fmt.Sprintf("gas/w%d", w),
			run: func(ck int, plan *rt.FaultPlan) (any, *bsp.Stats, error) {
				dist, res, err := gas.PrepareSSSP(g, src, gas.Config{Workers: w, RunEnv: rt.RunEnv{CheckpointEvery: ck, Faults: plan}})()
				if err != nil {
					return nil, nil, err
				}
				return dist, res.Stats, nil
			},
		})
	}
	cells = append(cells, engineCell{
		name: "async", epochSaves: true,
		run: func(ck int, plan *rt.FaultPlan) (any, *bsp.Stats, error) {
			dist, res, err := async.PrepareSSSP(g, src, async.Config{RunEnv: rt.RunEnv{CheckpointEvery: ck, Faults: plan}})()
			if err != nil {
				return nil, nil, err
			}
			return dist, res.Stats, nil
		},
	})
	for _, b := range []int{2, 3} {
		b := b
		cells = append(cells, engineCell{
			name: fmt.Sprintf("blockcentric/b%d", b),
			run: func(ck int, plan *rt.FaultPlan) (any, *bsp.Stats, error) {
				res, err := blockcentric.PrepareSSSP(g, src, blockcentric.Config{Blocks: b, RunEnv: rt.RunEnv{CheckpointEvery: ck, Faults: plan}})()
				if err != nil {
					return nil, nil, err
				}
				return res.Dist, res.Stats, nil
			},
		})
	}

	var ops seq.Ops
	want := seq.Dijkstra(g, src, &ops)
	runDifferential(t, cells, func(t *testing.T, cell string, values any) {
		got := values.([]float64)
		// Distances are sums along shortest paths, added in path order
		// in every engine, so even the floats agree exactly.
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s disagrees with Dijkstra", cell)
		}
	})
}

func TestDifferentialPageRank(t *testing.T) {
	g := graph.RandomConnected(120, 360, 9)
	const alpha, k = 0.85, 20
	var cells []engineCell
	for _, w := range []int{1, 3} {
		w := w
		cells = append(cells, engineCell{
			name: fmt.Sprintf("pregel/w%d", w),
			run: func(ck int, plan *rt.FaultPlan) (any, *bsp.Stats, error) {
				res, err := PreparePageRank(g, alpha, k, Config{Workers: w, RunEnv: rt.RunEnv{CheckpointEvery: ck, Faults: plan}})()
				if err != nil {
					return nil, nil, err
				}
				return res.Ranks, res.Stats, nil
			},
		})
		cells = append(cells, engineCell{
			name: fmt.Sprintf("gas/w%d", w),
			run: func(ck int, plan *rt.FaultPlan) (any, *bsp.Stats, error) {
				// Pin push: this matrix asserts that scatter-batch
				// transit faults fire, and adaptive PageRank's
				// iterations are dense enough that auto mode would
				// pull every one of them, leaving no batch in transit
				// to drop. Pull-mode fault replay is covered in
				// direction_test.go.
				ranks, res, err := gas.PreparePageRank(g, alpha, 1e-10, gas.Config{Workers: w, Mode: rt.DirectionPush, RunEnv: rt.RunEnv{CheckpointEvery: ck, Faults: plan}})()
				if err != nil {
					return nil, nil, err
				}
				return ranks, res.Stats, nil
			},
		})
	}
	cells = append(cells, engineCell{
		name: "async", epochSaves: true,
		run: func(ck int, plan *rt.FaultPlan) (any, *bsp.Stats, error) {
			ranks, res, err := async.PreparePageRank(g, alpha, 1e-10, async.Config{RunEnv: rt.RunEnv{CheckpointEvery: ck, Faults: plan}})()
			if err != nil {
				return nil, nil, err
			}
			return ranks, res.Stats, nil
		},
	})
	for _, b := range []int{2, 3} {
		b := b
		cells = append(cells, engineCell{
			name: fmt.Sprintf("blockcentric/b%d", b),
			run: func(ck int, plan *rt.FaultPlan) (any, *bsp.Stats, error) {
				res, err := blockcentric.PreparePageRank(g, alpha, k, blockcentric.Config{Blocks: b, RunEnv: rt.RunEnv{CheckpointEvery: ck, Faults: plan}})()
				if err != nil {
					return nil, nil, err
				}
				return res.Ranks, res.Stats, nil
			},
		})
	}

	var ops seq.Ops
	want := seq.PageRank(g, alpha, 300, &ops) // effectively converged
	wantK := seq.PageRank(g, alpha, k, &ops)
	runDifferential(t, cells, func(t *testing.T, cell string, values any) {
		got := values.([]float64)
		// Fixed-K engines compare against K power iterations (same
		// schedule, different float summation order); convergence-based
		// engines compare against the fixpoint.
		ref, tol := want, 1e-6
		if strings.HasPrefix(cell, "pregel") || strings.HasPrefix(cell, "blockcentric") {
			ref, tol = wantK, 1e-9
		}
		for v := range got {
			if math.Abs(got[v]-ref[v]) > tol {
				t.Fatalf("%s vertex %d: %v vs oracle %v", cell, v, got[v], ref[v])
			}
		}
	})
}
