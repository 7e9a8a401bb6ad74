// CSR-substrate benchmark: the graph-kernel workloads whose hot loops
// ride on the adjacency representation, on an unlabeled power-law
// (preferential-attachment) graph — the input whose degree skew the
// degree-balanced partitioner targets. `make bench-csr` runs this file
// and BENCH_csr.json records before/after numbers for adjacency-
// substrate changes (the [][]Edge -> CSR migration).
//
// Two benchmark families:
//
//   - BenchmarkCSRPageRank / BenchmarkCSRSSSP: wall-clock + allocs for
//     the traversal path through each engine, at 1 and 8 workers.
//   - BenchmarkCSRPartitionBalance: per-superstep load imbalance
//     (max_i w_i over mean_i w_i, averaged over supersteps) for each
//     partitioner at 8 workers, reported as the custom metric
//     "imbalance" — the max-w skew the BSP cost max(w, g·h, L) charges.
package vcgraph

import (
	"fmt"
	"testing"

	"vcgraph/internal/async"
	"vcgraph/internal/blockcentric"
	"vcgraph/internal/gas"
	"vcgraph/internal/graph"
	"vcgraph/internal/pregel"
	"vcgraph/internal/vc"
)

const (
	benchCSRAlpha = 0.85
	benchCSREps   = 1e-6
	benchCSRK     = 10
)

// benchCSRGraph is unlabeled and unweighted: every edge weight is 1, so
// the CSR snapshot stores no weight or label arrays at all.
func benchCSRGraph() *graph.Graph {
	return graph.PreferentialAttachment(20000, 8, 5)
}

func BenchmarkCSRPageRank(b *testing.B) {
	g := benchCSRGraph()
	for _, w := range []int{1, 8} {
		b.Run(fmt.Sprintf("pregel/workers-%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := vc.PreparePageRank(g, benchCSRAlpha, benchCSRK, vc.Config{Workers: w})(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("gas/workers-%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := gas.PreparePageRank(g, benchCSRAlpha, benchCSREps, gas.Config{Workers: w})(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("blockcentric/blocks-%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := blockcentric.PreparePageRank(g, benchCSRAlpha, benchCSRK, blockcentric.Config{Blocks: w})(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("async/workers-1", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := async.PreparePageRank(g, benchCSRAlpha, benchCSREps, async.Config{})(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkCSRSSSP(b *testing.B) {
	g := benchCSRGraph()
	graph.RandomWeights(g, 11)
	for _, w := range []int{1, 8} {
		b.Run(fmt.Sprintf("pregel/workers-%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := vc.PrepareSSSP(g, 0, vc.Config{Workers: w})(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("gas/workers-%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := gas.PrepareSSSP(g, 0, gas.Config{Workers: w})(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("blockcentric/blocks-%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := blockcentric.PrepareSSSP(g, 0, blockcentric.Config{Blocks: w})(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("async/workers-1", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := async.PrepareSSSP(g, 0, async.Config{})(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// imbalance returns the mean over supersteps of max_i w_i / mean_i w_i
// (1.0 = perfectly balanced local work). Supersteps with no work are
// skipped.
func imbalance(sup []struct {
	max   int64
	total int64
	p     int
}) float64 {
	var sum float64
	var k int
	for _, s := range sup {
		if s.total == 0 {
			continue
		}
		mean := float64(s.total) / float64(s.p)
		sum += float64(s.max) / mean
		k++
	}
	if k == 0 {
		return 1
	}
	return sum / float64(k)
}

func BenchmarkCSRPartitionBalance(b *testing.B) {
	g := benchCSRGraph()
	const workers = 8
	for _, pc := range []struct {
		name string
		part pregel.Partitioner
	}{
		{"hash", pregel.PartitionHash},
		{"range", pregel.PartitionRange},
		{"degree", pregel.PartitionDegreeBalanced},
	} {
		b.Run(pc.name, func(b *testing.B) {
			var imb float64
			for i := 0; i < b.N; i++ {
				res, err := vc.PreparePageRank(g, benchCSRAlpha, benchCSRK, vc.Config{Workers: workers, Partition: pc.part})()
				if err != nil {
					b.Fatal(err)
				}
				rows := make([]struct {
					max   int64
					total int64
					p     int
				}, len(res.Stats.Supersteps))
				for j, ss := range res.Stats.Supersteps {
					rows[j].p = res.Stats.Workers
					rows[j].max = ss.MaxWork
					for _, wk := range ss.Work {
						rows[j].total += wk
					}
				}
				imb = imbalance(rows)
			}
			b.ReportMetric(imb, "imbalance")
		})
	}
}
