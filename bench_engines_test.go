// Engine-matrix microbenchmark: the two headline workloads (PageRank,
// SSSP) through all four engines at 1 and 4 workers, on the same seeded
// power-law graph. BENCH_engines.json records before/after numbers for
// engine-substrate changes; the async engine is sequential by design
// and contributes a single workers-1 row per workload.
package vcgraph

import (
	"fmt"
	"testing"

	"vcgraph/internal/async"
	"vcgraph/internal/blockcentric"
	"vcgraph/internal/gas"
	"vcgraph/internal/graph"
	"vcgraph/internal/vc"
)

const (
	benchMatrixAlpha = 0.85
	benchMatrixEps   = 1e-6
	benchMatrixK     = 20
)

func benchMatrixGraph() *graph.Graph {
	g := graph.PreferentialAttachment(8000, 4, 5)
	graph.RandomWeights(g, 11)
	return g
}

func BenchmarkEngineMatrixPageRank(b *testing.B) {
	g := benchMatrixGraph()
	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("pregel/workers-%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := vc.PreparePageRank(g, benchMatrixAlpha, benchMatrixK, vc.Config{Workers: w})(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("gas/workers-%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := gas.PreparePageRank(g, benchMatrixAlpha, benchMatrixEps, gas.Config{Workers: w})(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("blockcentric/blocks-%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := blockcentric.PreparePageRank(g, benchMatrixAlpha, benchMatrixK, blockcentric.Config{Blocks: w})(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("async/workers-1", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := async.PreparePageRank(g, benchMatrixAlpha, benchMatrixEps, async.Config{})(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkEngineMatrixSSSP(b *testing.B) {
	g := benchMatrixGraph()
	for _, w := range []int{1, 4} {
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
