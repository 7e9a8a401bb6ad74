package vc

import (
	"fmt"
	"reflect"
	"testing"

	"vcgraph/internal/bsp"
	"vcgraph/internal/graph"
	"vcgraph/internal/pregel"
	rt "vcgraph/internal/runtime"
)

// Packed-state differential suite: every algorithm with a bit-packed
// variant (PackedState) must produce runs byte-identical to its dense
// twin — same outputs AND same per-superstep cost records — across
// partitioners, direction modes, and fault plans, on both
// flat (int32) and varint-delta-packed CSR snapshots. Byte-packing
// state or edges is a representation change only; any observable
// difference is a bug.

// packedCell pairs a dense run with its packed-state twin under one
// engine × configuration.
type packedCell struct {
	name   string
	dense  func(ck int, plan *rt.FaultPlan) (any, *bsp.Stats, error)
	packed func(ck int, plan *rt.FaultPlan) (any, *bsp.Stats, error)
}

// runPackedDifferential holds each cell's packed variant to its dense
// baseline: identical values and superstep records fault-free, and
// identical values again under every fault case and seeded plan.
func runPackedDifferential(t *testing.T, cells []packedCell) {
	for _, cell := range cells {
		cell := cell
		t.Run(cell.name, func(t *testing.T) {
			base, dstats, err := cell.dense(0, nil)
			if err != nil {
				t.Fatalf("dense run: %v", err)
			}
			got, pstats, err := cell.packed(0, nil)
			if err != nil {
				t.Fatalf("packed run: %v", err)
			}
			if !reflect.DeepEqual(got, base) {
				t.Fatalf("packed values differ from dense")
			}
			ds, ps := dstats.Supersteps, pstats.Supersteps
			if !reflect.DeepEqual(ds, ps) {
				t.Fatalf("packed superstep records differ from dense:\ndense:  %+v\npacked: %+v", ds, ps)
			}
			if dstats.MaxStatePerDeg != pstats.MaxStatePerDeg {
				t.Fatalf("state balance differs: dense %v, packed %v", dstats.MaxStatePerDeg, pstats.MaxStatePerDeg)
			}

			for _, fc := range faultCases() {
				fc := fc
				t.Run(fc.name, func(t *testing.T) {
					got, st, err := cell.packed(fc.ck, fc.plan(engineCell{}))
					if err != nil {
						t.Fatalf("faulted packed run: %v", err)
					}
					if !reflect.DeepEqual(got, base) {
						t.Fatalf("faulted packed output differs from dense baseline\nrecovery: %+v", st.Recovery)
					}
					fc.check(t, st.Recovery)
				})
			}
			for seed := int64(1); seed <= 2; seed++ {
				seed := seed
				t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
					got, st, err := cell.packed(2, rt.NewFaultPlan(seed))
					if err != nil {
						t.Fatalf("seeded packed run: %v", err)
					}
					if !reflect.DeepEqual(got, base) {
						t.Fatalf("seed %d packed output differs from dense baseline\nrecovery: %+v", seed, st.Recovery)
					}
				})
			}
		})
	}
}

// diffGraphs returns the two snapshot encodings every packed-state
// cell matrix runs over: the flat int32 CSR and the varint-delta
// packed one, built from identical adjacency.
func diffGraphs(build func() *graph.Graph) []struct {
	name string
	g    *graph.Graph
} {
	flat := build()
	packed := build()
	packed.Encoding = graph.EncodePacked
	return []struct {
		name string
		g    *graph.Graph
	}{{"int32", flat}, {"vdelta", packed}}
}

func TestPackedStateCCDifferential(t *testing.T) {
	for _, enc := range diffGraphs(func() *graph.Graph { return graph.Grid(12, 12) }) {
		g := enc.g
		var cells []packedCell

		ccCell := func(name string, cfg Config) packedCell {
			return packedCell{
				name: name,
				dense: func(ck int, plan *rt.FaultPlan) (any, *bsp.Stats, error) {
					c := cfg
					c.CheckpointEvery, c.Faults = ck, plan
					res, err := PrepareHashMinCC(g, c)()
					if err != nil {
						return nil, nil, err
					}
					return res.Color, res.Stats, nil
				},
				packed: func(ck int, plan *rt.FaultPlan) (any, *bsp.Stats, error) {
					c := cfg
					c.CheckpointEvery, c.Faults, c.PackedState = ck, plan, true
					res, err := PrepareHashMinCC(g, c)()
					if err != nil {
						return nil, nil, err
					}
					return res.Color, res.Stats, nil
				},
			}
		}
		for _, p := range []struct {
			name string
			part pregel.Partitioner
		}{{"hash", nil}, {"range", pregel.PartitionRange}} {
			for _, w := range []int{1, 3} {
				cells = append(cells, ccCell(fmt.Sprintf("pregel/%s/w%d", p.name, w), Config{Workers: w, Partition: p.part}))
			}
		}
		cells = append(cells,
			ccCell("pregel/push", Config{Workers: 3, Mode: rt.DirectionPush}),
			ccCell("pregel/pull", Config{Workers: 3, Mode: rt.DirectionPull}),
			ccCell("pregel/nocombiner", Config{Workers: 3, NoCombiner: true}),
			ccCell("pregel/fcs", Config{Workers: 3, FCS: 40}),
		)

		t.Run(enc.name, func(t *testing.T) { runPackedDifferential(t, cells) })
	}
}

func TestPackedStateKCoreDifferential(t *testing.T) {
	// The parallel graph doubles some edges, as a mutation batch can:
	// both storages must count a doubled neighbor once.
	for _, gr := range []struct {
		name string
		g    *graph.Graph
	}{
		{"grid", graph.Grid(12, 12)},
		{"powerlaw", graph.PreferentialAttachment(200, 3, 7)},
		{"parallel", withParallelEdges(graph.PreferentialAttachment(60, 3, 3))},
	} {
		for _, encName := range []string{"int32", "vdelta"} {
			g := gr.g
			if encName == "vdelta" {
				g = rebuildWithEncoding(gr.g)
			}
			runPackedDifferential(t, []packedCell{{
				name: gr.name + "/" + encName,
				dense: func(ck int, plan *rt.FaultPlan) (any, *bsp.Stats, error) {
					res, err := PrepareKCore(g, Config{Workers: 3, RunEnv: rt.RunEnv{CheckpointEvery: ck, Faults: plan}})()
					if err != nil {
						return nil, nil, err
					}
					return res.Core, res.Stats, nil
				},
				packed: func(ck int, plan *rt.FaultPlan) (any, *bsp.Stats, error) {
					res, err := PrepareKCore(g, Config{Workers: 3, PackedState: true, RunEnv: rt.RunEnv{CheckpointEvery: ck, Faults: plan}})()
					if err != nil {
						return nil, nil, err
					}
					return res.Core, res.Stats, nil
				},
			}})
		}
	}
}

// withParallelEdges returns a copy of the undirected graph src in
// which every third edge is doubled and every seventh tripled.
func withParallelEdges(src *graph.Graph) *graph.Graph {
	g := graph.New(src.N(), false)
	for i, e := range src.UndirectedEdges() {
		copies := 1
		if i%3 == 0 {
			copies++
		}
		if i%7 == 0 {
			copies++
		}
		for c := 0; c < copies; c++ {
			g.AddEdge(e.U, e.V)
		}
	}
	return g
}

// rebuildWithEncoding deep-copies a graph's adjacency into a new graph
// whose snapshots use the varint-delta packed encoding.
func rebuildWithEncoding(src *graph.Graph) *graph.Graph {
	c := graph.BuildCSR(src)
	g := graph.New(c.N(), c.Directed)
	g.Encoding = graph.EncodePacked
	for v := 0; v < c.N(); v++ {
		ws := c.OutWeights(graph.VertexID(v))
		var s graph.Scratch
		for i, u := range c.OutSpan(graph.VertexID(v), &s) {
			if !c.Directed && u < graph.VertexID(v) {
				continue // undirected edges appear in both adjacencies
			}
			w := 1.0
			if ws != nil {
				w = ws[i]
			}
			g.AddWeightedEdge(graph.VertexID(v), u, w)
		}
	}
	if c.Directed {
		g.EnsureIn()
	}
	return g
}

// TestMutationScriptPackedBase drives one mutation script through a
// flat graph and its packed-encoding twin in lockstep (scriptRig
// mirror): at every query point the incremental algorithms — whose
// delta overlays enumerate base-then-adds over a *compressed* base on
// the twin, re-based mid-script by RebuildEvery — and a from-scratch
// engine run with packed vertex state must be byte-identical to the
// int32 twin.
func TestMutationScriptPackedBase(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rig := newScriptRig(t, 24, 48, seed)
			twin := rig.g.Clone()
			twin.Encoding = graph.EncodePacked
			twin.RebuildEvery = 9 // force mid-script re-basing onto fresh packed bases
			rig.mirror = twin

			flat, packed := &incStates{}, &incStates{}
			check := func() {
				t.Helper()
				ccF, _, err := IncrementalCC(rig.g, flat.cc, IncConfig{})
				if err != nil {
					t.Fatalf("flat incremental CC: %v", err)
				}
				ccP, _, err := IncrementalCC(twin, packed.cc, IncConfig{})
				if err != nil {
					t.Fatalf("packed incremental CC: %v", err)
				}
				if ccF.Cold != ccP.Cold || !reflect.DeepEqual(ccF.Labels, ccP.Labels) {
					t.Fatalf("incremental CC over packed base differs (cold %v/%v)", ccF.Cold, ccP.Cold)
				}
				ssF, _, err := IncrementalSSSP(rig.g, scriptSrc, flat.sssp, IncConfig{})
				if err != nil {
					t.Fatalf("flat incremental SSSP: %v", err)
				}
				ssP, _, err := IncrementalSSSP(twin, scriptSrc, packed.sssp, IncConfig{})
				if err != nil {
					t.Fatalf("packed incremental SSSP: %v", err)
				}
				if !reflect.DeepEqual(ssF.Dist, ssP.Dist) {
					t.Fatal("incremental SSSP over packed base differs")
				}
				prF, _, err := PrepareIncrementalPageRank(rig.g, scriptAlpha, scriptK, flat.pr, IncConfig{})()
				if err != nil {
					t.Fatalf("flat incremental PageRank: %v", err)
				}
				prP, _, err := PrepareIncrementalPageRank(twin, scriptAlpha, scriptK, packed.pr, IncConfig{})()
				if err != nil {
					t.Fatalf("packed incremental PageRank: %v", err)
				}
				if !reflect.DeepEqual(prF.Hist, prP.Hist) {
					t.Fatal("incremental PageRank over packed base differs")
				}
				flat.cc, flat.sssp, flat.pr = ccF, ssF, prF
				packed.cc, packed.sssp, packed.pr = ccP, ssP, prP

				// From-scratch engine run combining every axis: flat
				// graph + dense state vs compressed mutated base +
				// bit-packed state.
				dres, err := PrepareHashMinCC(rig.g, Config{Workers: 3})()
				if err != nil {
					t.Fatalf("dense HashMinCC: %v", err)
				}
				pres, err := PrepareHashMinCC(twin, Config{Workers: 3, PackedState: true})()
				if err != nil {
					t.Fatalf("packed HashMinCC: %v", err)
				}
				if !reflect.DeepEqual(dres.Color, pres.Color) {
					t.Fatal("packed-state HashMinCC over compressed mutated base differs")
				}
				if !reflect.DeepEqual(dres.Stats.Supersteps, pres.Stats.Supersteps) {
					t.Fatal("packed-state HashMinCC superstep records differ over compressed mutated base")
				}
			}

			check()
			for step := 1; step <= 12; step++ {
				rig.step(1 + rig.rng.Intn(4))
				if step%3 == 0 {
					check()
				}
			}
		})
	}
}

func TestPackedStateColoringDifferential(t *testing.T) {
	for _, gr := range []struct {
		name string
		g    *graph.Graph
	}{
		{"grid", graph.Grid(10, 10)},
		{"powerlaw", graph.PreferentialAttachment(150, 3, 3)},
	} {
		for _, seed := range []int64{1, 5} {
			seed := seed
			t.Run(fmt.Sprintf("%s/seed%d", gr.name, seed), func(t *testing.T) {
				dense, err := ColoringMIS(gr.g, Config{Workers: 3, Seed: seed})
				if err != nil {
					t.Fatalf("dense: %v", err)
				}
				packed, err := ColoringMIS(gr.g, Config{Workers: 3, Seed: seed, PackedState: true})
				if err != nil {
					t.Fatalf("packed: %v", err)
				}
				if !reflect.DeepEqual(packed.Colors, dense.Colors) || packed.K != dense.K {
					t.Fatalf("packed coloring differs: K=%d vs %d", packed.K, dense.K)
				}
				if !reflect.DeepEqual(dense.Stats.Supersteps, packed.Stats.Supersteps) {
					t.Fatalf("packed coloring superstep records differ from dense")
				}

				// The packed run checkpoints its stores and master
				// counters, so it must survive the fault matrix with
				// the dense fault-free output.
				for _, fc := range faultCases() {
					fc := fc
					t.Run(fc.name, func(t *testing.T) {
						got, err := ColoringMIS(gr.g, Config{Workers: 3, Seed: seed, PackedState: true,
							RunEnv: rt.RunEnv{CheckpointEvery: fc.ck, Faults: fc.plan(engineCell{})}})
						if err != nil {
							t.Fatalf("faulted: %v", err)
						}
						if !reflect.DeepEqual(got.Colors, dense.Colors) || got.K != dense.K {
							t.Fatalf("faulted packed coloring differs\nrecovery: %+v", got.Stats.Recovery)
						}
						fc.check(t, got.Stats.Recovery)
					})
				}
			})
		}
	}
}

// TestPackedStateCheckpointBytesCountState: every packed program clones
// its stores into each checkpoint frame, delta frames included, so the
// frame bytes must count them. Hash-Min's packed and dense runs save
// the same full frames, except that packed ones carry the label store
// where dense ones carry the VertexID value array; the full-frame byte
// totals must differ by exactly that. (runtime's
// TestColumnFrameBytesCountsSizedState covers delta frames.)
func TestPackedStateCheckpointBytesCountState(t *testing.T) {
	g := graph.Grid(12, 12)
	n := int64(g.N())
	run := func(packed bool) *bsp.Stats {
		res, err := PrepareHashMinCC(g, Config{Workers: 3, PackedState: packed,
			RunEnv: rt.RunEnv{CheckpointEvery: 1, FullSnapshotEvery: 4}})()
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats
	}
	dense, packed := run(false).Recovery, run(true).Recovery
	full := int64(dense.CheckpointsSaved - dense.DeltaCheckpointsSaved)
	delta := int64(dense.DeltaCheckpointsSaved)
	if full == 0 || delta == 0 || packed.CheckpointsSaved != dense.CheckpointsSaved {
		t.Fatalf("frames: dense %+v, packed %+v", dense, packed)
	}
	store := int64(newPackedLabels(g.N()).SizeBytes())
	if want := dense.CheckpointBytesFull - full*n*rt.SizeOf[VertexID]() + full*store; packed.CheckpointBytesFull != want {
		t.Fatalf("packed full-frame bytes = %d, want %d", packed.CheckpointBytesFull, want)
	}

	for name, snap := range map[string]any{
		"kcore":    kcoreProgram[kcoreSlotsValue, kcoreSlots]{newKCoreSlots(g)}.SnapshotState(),
		"coloring": newPackedColoring(g).SnapshotState(),
	} {
		if s, ok := snap.(interface{ SizeBytes() int }); !ok || s.SizeBytes() == 0 {
			t.Errorf("%s packed snapshot reports no size", name)
		}
	}
}

// TestCheckpointBytesPinned pins the checkpoint bytes of Hash-Min,
// k-core, and coloring under both storages on a 60×60 grid (checkpoint
// every superstep, a full frame every fourth): dense state rides the
// Column's dirty-set deltas, packed stores are cloned whole into every
// frame, and neither may change by accident.
func TestCheckpointBytesPinned(t *testing.T) {
	g := graph.Grid(60, 60)
	cfg := func(packed bool) Config {
		return Config{Workers: 4, Seed: 1, PackedState: packed,
			RunEnv: rt.RunEnv{CheckpointEvery: 1, FullSnapshotEvery: 4}}
	}
	for _, tc := range []struct {
		algo        string
		packed      bool
		full, delta int64
	}{
		{"hashmin", false, 1625400, 3419508},
		{"hashmin", true, 1366200, 3278756},
		{"kcore", false, 1515696, 867464},
		{"kcore", true, 969336, 883136},
		{"coloring", false, 16073120, 50446872},
		{"coloring", true, 10832024, 34973160},
	} {
		var st *bsp.Stats
		var err error
		switch tc.algo {
		case "hashmin":
			var res *CCResult
			if res, err = PrepareHashMinCC(g, cfg(tc.packed))(); err == nil {
				st = res.Stats
			}
		case "kcore":
			var res *KCoreResult
			if res, err = PrepareKCore(g, cfg(tc.packed))(); err == nil {
				st = res.Stats
			}
		case "coloring":
			var res *ColoringResult
			if res, err = ColoringMIS(g, cfg(tc.packed)); err == nil {
				st = res.Stats
			}
		}
		if err != nil {
			t.Fatalf("%s packed=%v: %v", tc.algo, tc.packed, err)
		}
		if r := st.Recovery; r.CheckpointBytesFull != tc.full || r.CheckpointBytesDelta != tc.delta {
			t.Errorf("%s packed=%v: checkpoint bytes full %d delta %d, want %d %d",
				tc.algo, tc.packed, r.CheckpointBytesFull, r.CheckpointBytesDelta, tc.full, tc.delta)
		}
	}
}
