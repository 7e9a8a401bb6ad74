// Paradigms: the same two problems solved in every programming model
// the paper surveys — synchronous vertex-centric (Pregel), with and
// without the finishing-computations-serially optimization,
// subgraph-centric (Giraph++-style blocks), and gather-apply-scatter
// (PowerGraph-style pull) — with the BSP cost metrics side by side.
// This is the paper's concluding argument made runnable: "one
// distributed model might not be suitable for all kinds of graph
// computations."
package main

import (
	"fmt"

	"vcgraph/internal/blockcentric"
	"vcgraph/internal/bsp"
	"vcgraph/internal/gas"
	"vcgraph/internal/graph"
	"vcgraph/internal/vc"
)

func main() {
	// Problem 1: connected components on a high-diameter graph.
	g := graph.PermutedPath(8192, 3)
	fmt.Printf("problem 1: connected components on a permuted path (n=%d, δ=n-1)\n\n", g.N())
	fmt.Printf("%-28s %12s %14s %14s\n", "model", "supersteps", "messages", "P·T")

	hm, err := vc.PrepareHashMinCC(g, vc.Config{Workers: 4})()
	must(err)
	row("Pregel Hash-Min", hm.Stats)

	fcs, err := vc.PrepareHashMinCC(g, vc.Config{Workers: 4, FCS: 64})()
	must(err)
	row("Pregel Hash-Min + FCS", fcs.Stats)

	sv, err := vc.SVCC(g, vc.Config{Workers: 4})
	must(err)
	row("Pregel Shiloach-Vishkin", sv.Stats)

	// Block-centric quality depends on the partition: ID ranges scatter
	// a permuted path across blocks (every edge a boundary edge), while
	// a locality-aware partition keeps path segments together.
	bc, err := blockcentric.PrepareConnectedComponents(g, blockcentric.Config{Blocks: 4})()
	must(err)
	row("block-centric, ID ranges", bc.Stats)

	bcGood, err := blockcentric.PrepareConnectedComponents(g, blockcentric.Config{
		Blocks:    4,
		Partition: pathSegments(g),
	})()
	must(err)
	row("block-centric, segments", bcGood.Stats)

	// Problem 2: PageRank to convergence.
	pa := graph.PreferentialAttachment(10000, 3, 7)
	fmt.Printf("\nproblem 2: PageRank to convergence (eps=1e-9) on PA graph (n=%d, m=%d)\n\n", pa.N(), pa.M())
	fmt.Printf("%-28s %12s %14s %14s\n", "model", "iterations", "edge work", "P·T")

	pr, iters, err := vc.PageRankConverge(pa, 0.85, 1e-9, vc.Config{Workers: 4})
	must(err)
	fmt.Printf("%-28s %12d %14d %14.0f\n", "Pregel (push, sync)",
		iters, pr.Stats.TotalMessages, pr.Stats.MeasuredTPP())

	_, gres, err := gas.PreparePageRank(pa, 0.85, 1e-9, gas.Config{Workers: 4})()
	must(err)
	fmt.Printf("%-28s %12d %14d %14.0f\n", "GAS (pull, delta-sched)",
		gres.Iterations, gres.Stats.TotalWork, gres.Stats.MeasuredTPP())

	fmt.Println("\nall models agree on the answers; they differ wildly in supersteps,")
	fmt.Println("message volume, and time-processor product — the paper's point that")
	fmt.Println("the model must be chosen per workload.")
}

func row(name string, st *bsp.Stats) {
	fmt.Printf("%-28s %12d %14d %14.0f\n", name,
		st.NumSupersteps(), st.TotalMessages, st.MeasuredTPP())
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// pathSegments builds a locality-aware partitioner for a path graph by
// walking it from one endpoint and cutting it into contiguous segments
// — a stand-in for the locality a real partitioner (e.g. METIS) finds.
func pathSegments(g *graph.Graph) func(*graph.Graph, int) []int32 {
	n := g.N()
	// Find an endpoint and walk.
	start := graph.VertexID(0)
	for v := 0; v < n; v++ {
		if g.Degree(graph.VertexID(v)) == 1 {
			start = graph.VertexID(v)
			break
		}
	}
	order := make([]graph.VertexID, 0, n)
	prev := graph.NoVertex
	cur := start
	for len(order) < n {
		order = append(order, cur)
		next := graph.NoVertex
		for _, e := range g.Out[cur] {
			if e.Dst != prev {
				next = e.Dst
				break
			}
		}
		if next == graph.NoVertex {
			break
		}
		prev, cur = cur, next
	}
	return func(g *graph.Graph, blocks int) []int32 {
		owner := make([]int32, n)
		for i, v := range order {
			owner[v] = int32(i * blocks / n)
			if owner[v] >= int32(blocks) {
				owner[v] = int32(blocks) - 1
			}
		}
		return owner
	}
}
