// Checkpoint compaction benchmark: total bytes captured by the
// checkpoint store over a run with per-superstep checkpointing, full
// snapshots every step (the legacy cadence) versus dirty-set delta
// chains with a full frame every 16th save. The workloads are
// sparse-frontier tails where compaction pays:
//
//   - SSSP on a 150x150 grid runs ~300 supersteps, but after the early
//     waves each superstep relaxes only the O(sqrt n) frontier, so a
//     full snapshot re-copies 22.5k distances to checkpoint a few
//     hundred writes.
//   - Hash-Min CC on a straggler graph — a 60x60 grid component (long
//     diameter, ~120 label waves) plus 36k vertices in two-vertex
//     components that converge by superstep 2 — keeps checkpointing
//     the whole graph for the straggler's sake while the converged
//     bulk never dirties again. (Hash-Min on a single grid is the
//     negative control: its label waves keep ~half the vertices dirty
//     on average, so compaction caps near 1.4x — recorded in
//     BENCH_checkpoint.json, not headlined.)
//
// `make bench-checkpoint` runs this file; BENCH_checkpoint.json records
// the numbers and declares the bytes headlines (delta cadence captures
// >=5x fewer checkpoint bytes) that cmd/benchguard enforces.
//
// The B/op of each sub-benchmark is overridden with the run's
// Stats.Recovery checkpoint byte account (full + delta frames) — a
// deterministic size estimate, identical across iterations — so the
// benchguard bytes_op ratio compares checkpoint traffic, not allocator
// churn.
package vcgraph

import (
	"testing"

	"vcgraph/internal/graph"
	rt "vcgraph/internal/runtime"
	"vcgraph/internal/vc"
)

func benchCheckpointCadences() []struct {
	name      string
	fullEvery int
} {
	return []struct {
		name      string
		fullEvery int
	}{
		{"full", 0},   // every save a full snapshot: the control
		{"delta", 16}, // dirty-set deltas, full frame every 16th save
	}
}

// checkpointBytes reports a run's total checkpoint capture through the
// benchmark's B/op column, plus how many frames were stored as deltas.
func checkpointBytes(b *testing.B, full, delta int64, deltaFrames int) {
	b.ReportMetric(float64(full+delta), "B/op")
	b.ReportMetric(float64(deltaFrames), "deltaframes")
}

// BenchmarkCheckpointSSSP checkpoints every superstep of a pregel SSSP
// whose frontier collapses to a sparse wave after the first few steps.
func BenchmarkCheckpointSSSP(b *testing.B) {
	g := graph.Grid(150, 150)
	graph.RandomWeights(g, 7)
	for _, c := range benchCheckpointCadences() {
		b.Run(c.name, func(b *testing.B) {
			var full, delta int64
			var frames int
			for i := 0; i < b.N; i++ {
				res, err := vc.PrepareSSSP(g, 0, vc.Config{RunEnv: rt.RunEnv{CheckpointEvery: 1, FullSnapshotEvery: c.fullEvery}})()
				if err != nil {
					b.Fatal(err)
				}
				r := res.Stats.Recovery
				full, delta, frames = r.CheckpointBytesFull, r.CheckpointBytesDelta, r.DeltaCheckpointsSaved
			}
			checkpointBytes(b, full, delta, frames)
		})
	}
}

// stragglerGraph builds one side x side grid component — the
// long-diameter straggler that keeps the run alive — plus two-vertex
// components filling the ID space to n. Hash-Min settles the pairs by
// superstep 2, after which only the straggler's shrinking label
// boundary dirties, but a full snapshot still re-copies all n labels
// every superstep.
func stragglerGraph(side, n int) *graph.Graph {
	g := graph.New(n, false)
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			id := graph.VertexID(r*side + c)
			if c+1 < side {
				g.AddEdge(id, id+1)
			}
			if r+1 < side {
				g.AddEdge(id, id+graph.VertexID(side))
			}
		}
	}
	for v := side * side; v+1 < n; v += 2 {
		g.AddEdge(graph.VertexID(v), graph.VertexID(v+1))
	}
	return g
}

// BenchmarkCheckpointCC checkpoints every superstep of Hash-Min
// connected components on the straggler graph: the converged bulk is
// dead weight in every full snapshot, the delta frames track only the
// grid component's label waves.
func BenchmarkCheckpointCC(b *testing.B) {
	g := stragglerGraph(60, 40000)
	for _, c := range benchCheckpointCadences() {
		b.Run(c.name, func(b *testing.B) {
			var full, delta int64
			var frames int
			for i := 0; i < b.N; i++ {
				res, err := vc.PrepareHashMinCC(g, vc.Config{RunEnv: rt.RunEnv{CheckpointEvery: 1, FullSnapshotEvery: c.fullEvery}})()
				if err != nil {
					b.Fatal(err)
				}
				r := res.Stats.Recovery
				full, delta, frames = r.CheckpointBytesFull, r.CheckpointBytesDelta, r.DeltaCheckpointsSaved
			}
			checkpointBytes(b, full, delta, frames)
		})
	}
}
