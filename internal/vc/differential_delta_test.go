package vc

import (
	"fmt"
	"reflect"
	"testing"

	"vcgraph/internal/async"
	"vcgraph/internal/blockcentric"
	"vcgraph/internal/bsp"
	"vcgraph/internal/gas"
	"vcgraph/internal/graph"
	"vcgraph/internal/pregel"
	rt "vcgraph/internal/runtime"
)

// Delta-cadence differential suite: the fault matrix of
// differential_test.go rerun with checkpoints stored as dirty-set
// delta chains (CheckpointEvery=1, FullSnapshotEvery=3), so saves land
// at steps 1 (full), 2 (delta), 3 (delta), 4 (full), ... Every run —
// fault-free, crash-mid-chain, corrupt-delta, corrupt-base — must stay
// byte-identical to the engine's full-snapshot fault-free baseline,
// and corrupting a frame must invalidate exactly the frames that
// depend on it.

const (
	deltaCK   = 1 // checkpoint every barrier: saves land at steps 1, 2, 3, ...
	deltaFull = 3 // every third frame full: 1 full, 2 delta, 3 delta, 4 full, ...
)

// deltaCell is one engine × parallelism configuration of a workload,
// run under an explicit checkpoint and full-snapshot cadence.
type deltaCell struct {
	name string
	// epochSaves marks engines that checkpoint after the barrier's
	// fault check (the asynchronous engine): the newest save a crash at
	// barrier k sees is the step k-1 one, so their crash step shifts by
	// one to read the same three-frame chain as the barrier engines.
	epochSaves bool
	run        func(ck, fullEvery int, plan *rt.FaultPlan) (any, *bsp.Stats, error)
}

// deltaCase is a fault plan against the delta chain plus the exact
// recovery accounting its firing must leave behind.
type deltaCase struct {
	name  string
	plan  func(cell deltaCell) *rt.FaultPlan
	check func(t *testing.T, r bsp.Recovery)
}

// deltaCrashStep picks the crash barrier so the recovery reads the
// chain 1 (full) → 2 (delta) → 3 (delta): barrier engines save frame k
// at the end of superstep k-1, so crash(3) already sees all three;
// epoch-save engines write after the crash check, so barrier 4 is the
// first to see frame 3.
func deltaCrashStep(cell deltaCell) int {
	if cell.epochSaves {
		return 4
	}
	return 3
}

func deltaCases() []deltaCase {
	return []deltaCase{
		{
			// Crash with a two-delta chain resident: rollback has to
			// reconstruct step 3 by applying frames 2 and 3 onto full
			// frame 1 — and nothing may be skipped or invalidated.
			name: "crash-mid-chain",
			plan: func(cell deltaCell) *rt.FaultPlan {
				return rt.PlanOf(rt.Crash(deltaCrashStep(cell)))
			},
			check: func(t *testing.T, r bsp.Recovery) {
				if r.Rollbacks == 0 || r.DeltaCheckpointsSaved == 0 {
					t.Errorf("chain crash: rollbacks=%d deltas=%d, want both > 0", r.Rollbacks, r.DeltaCheckpointsSaved)
				}
				if r.CorruptedCheckpoints != 0 || r.InvalidatedCheckpoints != 0 {
					t.Errorf("clean chain restore skipped frames: %+v", r)
				}
			},
		},
		{
			// The mid-chain delta (frame 2) is silently corrupt: recovery
			// must count it once, invalidate the still-readable dependent
			// frame 3, and fall back to the full frame at step 1.
			name: "corrupt-delta-mid-chain",
			plan: func(cell deltaCell) *rt.FaultPlan {
				return rt.PlanOf(rt.CorruptCheckpoint(2), rt.Crash(deltaCrashStep(cell)))
			},
			check: func(t *testing.T, r bsp.Recovery) {
				if r.CorruptedCheckpoints != 1 || r.InvalidatedCheckpoints != 1 {
					t.Errorf("corrupt mid-chain delta: corrupted=%d invalidated=%d, want 1/1", r.CorruptedCheckpoints, r.InvalidatedCheckpoints)
				}
				if r.Rollbacks == 0 {
					t.Errorf("corrupt mid-chain delta: no rollback recorded: %+v", r)
				}
			},
		},
		{
			// The base full frame is corrupt: the entire generation is
			// unreadable — both dependent deltas are invalidated and the
			// engine restarts from scratch.
			name: "corrupt-base-full",
			plan: func(cell deltaCell) *rt.FaultPlan {
				return rt.PlanOf(rt.CorruptCheckpoint(1), rt.Crash(deltaCrashStep(cell)))
			},
			check: func(t *testing.T, r bsp.Recovery) {
				if r.CorruptedCheckpoints != 1 || r.InvalidatedCheckpoints != 2 {
					t.Errorf("corrupt base full: corrupted=%d invalidated=%d, want 1/2", r.CorruptedCheckpoints, r.InvalidatedCheckpoints)
				}
				if r.Rollbacks == 0 {
					t.Errorf("corrupt base full: no rollback recorded: %+v", r)
				}
			},
		},
		{
			// A message batch lost in transit at superstep 1 forces a
			// rollback that restores through whatever chain is resident.
			name: "drop-lane-mid-chain",
			plan: func(cell deltaCell) *rt.FaultPlan {
				return rt.PlanOf(rt.DropLane(1, 0, 0))
			},
			check: func(t *testing.T, r bsp.Recovery) {
				if r.DroppedLanes == 0 || r.Rollbacks == 0 {
					t.Errorf("dropped lane under delta cadence: dropped=%d rollbacks=%d, want both > 0", r.DroppedLanes, r.Rollbacks)
				}
			},
		},
	}
}

// runDeltaDifferential drives each cell through the delta fault matrix.
// The fault-free full-snapshot run is the baseline (its agreement with
// the sequential oracle is asserted by differential_test.go); the
// fault-free delta run and every faulted delta run must match it
// byte for byte.
func runDeltaDifferential(t *testing.T, cells []deltaCell) {
	for _, cell := range cells {
		t.Run(cell.name, func(t *testing.T) {
			base, _, err := cell.run(0, 0, nil)
			if err != nil {
				t.Fatalf("fault-free full run: %v", err)
			}

			t.Run("fault-free-delta", func(t *testing.T) {
				got, st, err := cell.run(deltaCK, deltaFull, nil)
				if err != nil {
					t.Fatalf("fault-free delta run: %v", err)
				}
				if !reflect.DeepEqual(got, base) {
					t.Fatalf("delta cadence changed fault-free output\nrecovery: %+v", st.Recovery)
				}
				r := st.Recovery
				if r.Faulted() {
					t.Fatalf("fault-free delta run reports recovery activity: %+v", r)
				}
				if r.DeltaCheckpointsSaved == 0 {
					t.Fatalf("delta cadence saved no delta frames: %+v", r)
				}
				if r.CheckpointBytesFull == 0 || r.CheckpointBytesDelta == 0 {
					t.Fatalf("checkpoint byte accounting empty: full=%d delta=%d", r.CheckpointBytesFull, r.CheckpointBytesDelta)
				}
			})

			for _, fc := range deltaCases() {
				t.Run(fc.name, func(t *testing.T) {
					got, st, err := cell.run(deltaCK, deltaFull, fc.plan(cell))
					if err != nil {
						t.Fatalf("faulted run: %v", err)
					}
					if !reflect.DeepEqual(got, base) {
						t.Fatalf("faulted output differs from fault-free run\nrecovery: %+v", st.Recovery)
					}
					fc.check(t, st.Recovery)
				})
			}

			// Seeded random plans under delta cadence: whatever mix a
			// seed generates — including corruption landing anywhere in
			// a chain — the output must not change.
			for seed := int64(1); seed <= 4; seed++ {
				t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
					got, st, err := cell.run(deltaCK, deltaFull, rt.NewFaultPlan(seed))
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

func TestDeltaDifferentialConnectedComponents(t *testing.T) {
	g := graph.Grid(12, 12) // diameter 22: every chain position is exercised
	var cells []deltaCell
	for _, p := range []struct {
		name string
		part pregel.Partitioner
	}{{"hash", nil}, {"range", pregel.PartitionRange}} {
		for _, w := range []int{1, 3} {
			part, w := p.part, w
			cells = append(cells, deltaCell{
				name: fmt.Sprintf("pregel/%s/w%d", p.name, w),
				run: func(ck, fullEvery int, plan *rt.FaultPlan) (any, *bsp.Stats, error) {
					res, err := PrepareHashMinCC(g, Config{Workers: w, Partition: part, RunEnv: rt.RunEnv{CheckpointEvery: ck, FullSnapshotEvery: fullEvery, Faults: plan}})()
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
		cells = append(cells, deltaCell{
			name: fmt.Sprintf("gas/w%d", w),
			run: func(ck, fullEvery int, plan *rt.FaultPlan) (any, *bsp.Stats, error) {
				labels, res, err := gas.PrepareConnectedComponents(g, gas.Config{Workers: w, RunEnv: rt.RunEnv{CheckpointEvery: ck, FullSnapshotEvery: fullEvery, Faults: plan}})()
				if err != nil {
					return nil, nil, err
				}
				return labels, res.Stats, nil
			},
		})
	}
	cells = append(cells, deltaCell{
		name: "async", epochSaves: true,
		run: func(ck, fullEvery int, plan *rt.FaultPlan) (any, *bsp.Stats, error) {
			labels, res, err := async.PrepareConnectedComponents(g, async.Config{RunEnv: rt.RunEnv{CheckpointEvery: ck, FullSnapshotEvery: fullEvery, Faults: plan}})()
			if err != nil {
				return nil, nil, err
			}
			return labels, res.Stats, nil
		},
	})
	for _, b := range []int{2, 3} {
		b := b
		cells = append(cells, deltaCell{
			name: fmt.Sprintf("blockcentric/b%d", b),
			run: func(ck, fullEvery int, plan *rt.FaultPlan) (any, *bsp.Stats, error) {
				res, err := blockcentric.PrepareConnectedComponents(g, blockcentric.Config{Blocks: b, RunEnv: rt.RunEnv{CheckpointEvery: ck, FullSnapshotEvery: fullEvery, Faults: plan}})()
				if err != nil {
					return nil, nil, err
				}
				return res.Color, res.Stats, nil
			},
		})
	}
	runDeltaDifferential(t, cells)
}

func TestDeltaDifferentialSSSP(t *testing.T) {
	g := graph.Grid(12, 12)
	graph.RandomWeights(g, 3)
	const src = 0
	var cells []deltaCell
	for _, w := range []int{1, 3} {
		w := w
		cells = append(cells, deltaCell{
			name: fmt.Sprintf("pregel/w%d", w),
			run: func(ck, fullEvery int, plan *rt.FaultPlan) (any, *bsp.Stats, error) {
				res, err := PrepareSSSP(g, src, Config{Workers: w, RunEnv: rt.RunEnv{CheckpointEvery: ck, FullSnapshotEvery: fullEvery, Faults: plan}})()
				if err != nil {
					return nil, nil, err
				}
				return res.Dist, res.Stats, nil
			},
		})
		cells = append(cells, deltaCell{
			name: fmt.Sprintf("gas/w%d", w),
			run: func(ck, fullEvery int, plan *rt.FaultPlan) (any, *bsp.Stats, error) {
				dist, res, err := gas.PrepareSSSP(g, src, gas.Config{Workers: w, RunEnv: rt.RunEnv{CheckpointEvery: ck, FullSnapshotEvery: fullEvery, Faults: plan}})()
				if err != nil {
					return nil, nil, err
				}
				return dist, res.Stats, nil
			},
		})
	}
	cells = append(cells, deltaCell{
		name: "async", epochSaves: true,
		run: func(ck, fullEvery int, plan *rt.FaultPlan) (any, *bsp.Stats, error) {
			dist, res, err := async.PrepareSSSP(g, src, async.Config{RunEnv: rt.RunEnv{CheckpointEvery: ck, FullSnapshotEvery: fullEvery, Faults: plan}})()
			if err != nil {
				return nil, nil, err
			}
			return dist, res.Stats, nil
		},
	})
	for _, b := range []int{2, 3} {
		b := b
		cells = append(cells, deltaCell{
			name: fmt.Sprintf("blockcentric/b%d", b),
			run: func(ck, fullEvery int, plan *rt.FaultPlan) (any, *bsp.Stats, error) {
				res, err := blockcentric.PrepareSSSP(g, src, blockcentric.Config{Blocks: b, RunEnv: rt.RunEnv{CheckpointEvery: ck, FullSnapshotEvery: fullEvery, Faults: plan}})()
				if err != nil {
					return nil, nil, err
				}
				return res.Dist, res.Stats, nil
			},
		})
	}
	runDeltaDifferential(t, cells)
}

func TestDeltaDifferentialPageRank(t *testing.T) {
	g := graph.RandomConnected(120, 360, 9)
	const alpha, k = 0.85, 20
	var cells []deltaCell
	for _, w := range []int{1, 3} {
		w := w
		cells = append(cells, deltaCell{
			name: fmt.Sprintf("pregel/w%d", w),
			run: func(ck, fullEvery int, plan *rt.FaultPlan) (any, *bsp.Stats, error) {
				res, err := PreparePageRank(g, alpha, k, Config{Workers: w, RunEnv: rt.RunEnv{CheckpointEvery: ck, FullSnapshotEvery: fullEvery, Faults: plan}})()
				if err != nil {
					return nil, nil, err
				}
				return res.Ranks, res.Stats, nil
			},
		})
		cells = append(cells, deltaCell{
			name: fmt.Sprintf("gas/w%d", w),
			run: func(ck, fullEvery int, plan *rt.FaultPlan) (any, *bsp.Stats, error) {
				// Push pinned for the same reason as differential_test.go:
				// the transit-fault events must find batches to drop.
				ranks, res, err := gas.PreparePageRank(g, alpha, 1e-10, gas.Config{Workers: w, Mode: rt.DirectionPush, RunEnv: rt.RunEnv{CheckpointEvery: ck, FullSnapshotEvery: fullEvery, Faults: plan}})()
				if err != nil {
					return nil, nil, err
				}
				return ranks, res.Stats, nil
			},
		})
	}
	cells = append(cells, deltaCell{
		name: "async", epochSaves: true,
		run: func(ck, fullEvery int, plan *rt.FaultPlan) (any, *bsp.Stats, error) {
			ranks, res, err := async.PreparePageRank(g, alpha, 1e-10, async.Config{RunEnv: rt.RunEnv{CheckpointEvery: ck, FullSnapshotEvery: fullEvery, Faults: plan}})()
			if err != nil {
				return nil, nil, err
			}
			return ranks, res.Stats, nil
		},
	})
	for _, b := range []int{2, 3} {
		b := b
		cells = append(cells, deltaCell{
			name: fmt.Sprintf("blockcentric/b%d", b),
			run: func(ck, fullEvery int, plan *rt.FaultPlan) (any, *bsp.Stats, error) {
				res, err := blockcentric.PreparePageRank(g, alpha, k, blockcentric.Config{Blocks: b, RunEnv: rt.RunEnv{CheckpointEvery: ck, FullSnapshotEvery: fullEvery, Faults: plan}})()
				if err != nil {
					return nil, nil, err
				}
				return res.Ranks, res.Stats, nil
			},
		})
	}
	runDeltaDifferential(t, cells)
}
