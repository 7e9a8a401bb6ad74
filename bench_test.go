// Package vcgraph's root bench suite regenerates every Table 1 row of
// the paper as a Go benchmark: each BenchmarkT1_XX runs the row's
// vertex-centric implementation and its sequential baseline as
// sub-benchmarks ("vc" and "seq") on the row's small-scale workload, so
// `go test -bench .` reports the wall-clock side of the comparison the
// paper makes analytically. Figure traces and engine micro-benchmarks
// are included as well.
package vcgraph

import (
	"fmt"
	"testing"

	"vcgraph/internal/blockcentric"
	"vcgraph/internal/core"
	"vcgraph/internal/gas"
	"vcgraph/internal/graph"
	"vcgraph/internal/pregel"
	rt "vcgraph/internal/runtime"
	"vcgraph/internal/seq"
	"vcgraph/internal/vc"
)

// benchRow benches one registry row: the paired runner at the row's
// small scale (per-iteration it performs both the vertex-centric run
// and the sequential baseline, exactly what cmd/table1 measures).
func benchRow(b *testing.B, id string) {
	var exp *core.Experiment
	for _, e := range core.Experiments() {
		if e.ID == id {
			exp = e
			break
		}
	}
	if exp == nil {
		b.Fatalf("no experiment %s", id)
	}
	cfg := vc.Config{Workers: 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Run(exp.Small, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkT1_01_Diameter(b *testing.B)          { benchRow(b, "T1.01") }
func BenchmarkT1_02_PageRank(b *testing.B)          { benchRow(b, "T1.02") }
func BenchmarkT1_03_HashMinCC(b *testing.B)         { benchRow(b, "T1.03") }
func BenchmarkT1_04_ShiloachVishkin(b *testing.B)   { benchRow(b, "T1.04") }
func BenchmarkT1_05_Biconnected(b *testing.B)       { benchRow(b, "T1.05") }
func BenchmarkT1_06_WeaklyConnected(b *testing.B)   { benchRow(b, "T1.06") }
func BenchmarkT1_07_StronglyConnected(b *testing.B) { benchRow(b, "T1.07") }
func BenchmarkT1_08_EulerTour(b *testing.B)         { benchRow(b, "T1.08") }
func BenchmarkT1_09_PrePostOrder(b *testing.B)      { benchRow(b, "T1.09") }
func BenchmarkT1_10_SpanningTree(b *testing.B)      { benchRow(b, "T1.10") }
func BenchmarkT1_11_MinSpanningTree(b *testing.B)   { benchRow(b, "T1.11") }
func BenchmarkT1_12_ColoringMIS(b *testing.B)       { benchRow(b, "T1.12") }
func BenchmarkT1_13_MaxWeightMatching(b *testing.B) { benchRow(b, "T1.13") }
func BenchmarkT1_14_BipartiteMatching(b *testing.B) { benchRow(b, "T1.14") }
func BenchmarkT1_15_Betweenness(b *testing.B)       { benchRow(b, "T1.15") }
func BenchmarkT1_16_SSSP(b *testing.B)              { benchRow(b, "T1.16") }
func BenchmarkT1_17_APSP(b *testing.B)              { benchRow(b, "T1.17") }
func BenchmarkT1_18_GraphSimulation(b *testing.B)   { benchRow(b, "T1.18") }
func BenchmarkT1_19_DualSimulation(b *testing.B)    { benchRow(b, "T1.19") }
func BenchmarkT1_20_StrongSimulation(b *testing.B)  { benchRow(b, "T1.20") }

// --- Vertex-centric vs. sequential wall-clock pairs (McSherry-style
// "scalability, but at what COST" comparisons on identical inputs) ---

func BenchmarkWallclockPageRank(b *testing.B) {
	g := graph.PreferentialAttachment(5000, 3, 1)
	b.Run("vc", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := vc.PreparePageRank(g, 0.85, 30, vc.Config{Workers: 4})(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("seq", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var ops seq.Ops
			seq.PageRank(g, 0.85, 30, &ops)
		}
	})
}

func BenchmarkWallclockConnectedComponents(b *testing.B) {
	g := graph.RandomConnected(20000, 60000, 2)
	b.Run("hashmin", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := vc.PrepareHashMinCC(g, vc.Config{Workers: 4})(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sv", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := vc.SVCC(g, vc.Config{Workers: 4}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("seq-bfs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var ops seq.Ops
			seq.Components(g, &ops)
		}
	})
}

func BenchmarkWallclockSSSP(b *testing.B) {
	g := graph.RandomConnected(20000, 80000, 3)
	graph.RandomWeights(g, 4)
	b.Run("vc", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := vc.PrepareSSSP(g, 0, vc.Config{Workers: 4})(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("seq-dijkstra", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var ops seq.Ops
			seq.Dijkstra(g, 0, &ops)
		}
	})
}

// --- Engine micro-benchmarks and worker-count ablation ---

// tokenProgram passes a single token down a path: one active vertex per
// superstep over n supersteps. It isolates the engine's superstep
// dispatch overhead (worker wakeup, active-vertex discovery, inbox
// management) from algorithmic work.
type tokenProgram struct{}

func (tokenProgram) Init(g *graph.Graph, id pregel.VertexID) int { return 0 }

func (tokenProgram) Compute(ctx *pregel.Context[int, int], msgs []int) {
	if ctx.Superstep() == 0 {
		if ctx.ID() == 0 && ctx.NumVertices() > 1 {
			ctx.SendTo(1, 1)
		}
	} else if len(msgs) > 0 {
		if next := ctx.ID() + 1; int(next) < ctx.NumVertices() {
			ctx.SendTo(next, 1)
		}
	}
	ctx.VoteToHalt()
}

// BenchmarkEngineSuperstepDispatch measures the per-superstep fixed
// cost of the pregel engine: 2048 supersteps with exactly one active
// vertex and one in-flight message each.
func BenchmarkEngineSuperstepDispatch(b *testing.B) {
	g := graph.Path(2048)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := pregel.NewEngine[int, int](g, tokenProgram{}, pregel.Config[int]{Workers: 4})
		if _, err := eng.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPowerLawPageRank / BenchmarkPowerLawSSSP: the two headline
// workloads on the preferential-attachment (power-law) generator, used
// to document engine-substrate improvements.
func BenchmarkPowerLawPageRank(b *testing.B) {
	g := graph.PreferentialAttachment(20000, 4, 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vc.PreparePageRank(g, 0.85, 20, vc.Config{Workers: 4})(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPowerLawSSSP(b *testing.B) {
	g := graph.PreferentialAttachment(20000, 4, 7)
	graph.RandomWeights(g, 11)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vc.PrepareSSSP(g, 0, vc.Config{Workers: 4})(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineWorkers(b *testing.B) {
	g := graph.PreferentialAttachment(20000, 4, 5)
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := vc.PreparePageRank(g, 0.85, 10, vc.Config{Workers: w})(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkEngineMessageThroughput(b *testing.B) {
	// Hash-Min on a dense random graph is message-bound: measures raw
	// routing + combining throughput.
	g := graph.Random(5000, 100000, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vc.PrepareHashMinCC(g, vc.Config{Workers: 4})(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigures(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.Figures(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Extension algorithms (§3.8 and the Pregel paper's remainder) ---

func BenchmarkExtensionTriangles(b *testing.B) {
	g := graph.Random(1000, 12000, 8)
	b.Run("vc", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := vc.Triangles(g, vc.Config{Workers: 4}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("seq", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var ops seq.Ops
			seq.Triangles(g, &ops)
		}
	})
}

func BenchmarkExtensionKCore(b *testing.B) {
	g := graph.PreferentialAttachment(5000, 4, 9)
	b.Run("vc", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := vc.PrepareKCore(g, vc.Config{Workers: 4})(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("seq", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var ops seq.Ops
			seq.KCore(g, &ops)
		}
	})
}

func BenchmarkExtensionCommunity(b *testing.B) {
	g := graph.PreferentialAttachment(5000, 3, 10)
	for i := 0; i < b.N; i++ {
		if _, err := vc.LabelPropagation(g, 0, vc.Config{Workers: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtensionSemiClustering(b *testing.B) {
	g := graph.RandomConnected(1000, 4000, 11)
	graph.RandomWeights(g, 12)
	for i := 0; i < b.N; i++ {
		if _, err := vc.SemiClustering(g, vc.SemiClusterConfig{}, vc.Config{Workers: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Paradigm benchmarks: the same problem in three engines ---

func BenchmarkParadigmCC(b *testing.B) {
	// Permuted IDs: the realistic case where the Hash-Min frontier
	// thins out, letting FCS and the block-centric model shine.
	g := graph.PermutedPath(8192, 3)
	b.Run("pregel-hashmin", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := vc.PrepareHashMinCC(g, vc.Config{Workers: 4})(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pregel-sv", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := vc.SVCC(g, vc.Config{Workers: 4}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pregel-hashmin-fcs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := vc.PrepareHashMinCC(g, vc.Config{Workers: 4, FCS: 64})(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("blockcentric", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := blockcentric.PrepareConnectedComponents(g, blockcentric.Config{Blocks: 4})(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkParadigmPageRank(b *testing.B) {
	g := graph.PreferentialAttachment(10000, 3, 13)
	const eps = 1e-9
	b.Run("pregel-converge", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := vc.PageRankConverge(g, 0.85, eps, vc.Config{Workers: 4}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("gas-delta", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := gas.PreparePageRank(g, 0.85, eps, gas.Config{Workers: 4})(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkCheckpointOverhead(b *testing.B) {
	g := graph.Path(2048)
	b.Run("plain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := vc.PrepareHashMinCC(g, vc.Config{Workers: 4})(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("checkpoint-64", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := vc.PrepareHashMinCC(g, vc.Config{Workers: 4, RunEnv: rt.RunEnv{CheckpointEvery: 64}})(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
