// Road-network analytics on a weighted grid: shortest-path routing
// (SSSP), network span (diameter), and congestion points (betweenness
// centrality) — workloads where the grid's Θ(√n) diameter makes the
// superstep counts of vertex-centric algorithms painfully visible.
package main

import (
	"fmt"

	"vcgraph/internal/graph"
	"vcgraph/internal/vc"
)

func main() {
	const side = 40
	g := graph.Grid(side, side)
	graph.RandomWeights(g, 21)
	fmt.Printf("road grid: %dx%d (n=%d, m=%d)\n\n", side, side, g.N(), g.M())
	cfg := vc.Config{Workers: 4}

	// Routing: travel cost from the north-west depot to everywhere.
	sssp, err := vc.PrepareSSSP(g, 0, cfg)()
	if err != nil {
		panic(err)
	}
	corner := graph.VertexID(side*side - 1)
	fmt.Printf("cheapest route depot -> far corner: %.4g\n", sssp.Dist[corner])
	fmt.Printf("  SSSP took %d supersteps (Bellman-Ford waves across the Θ(√n)-diameter grid)\n\n",
		sssp.Stats.NumSupersteps())

	// Network span in hops.
	diam, err := vc.Diameter(g, cfg)
	if err != nil {
		panic(err)
	}
	fmt.Printf("hop diameter: %d (expected %d for a %dx%d grid)\n\n", diam.Diameter, 2*(side-1), side, side)

	// Congestion: betweenness from 8 sampled depots.
	sources := []graph.VertexID{0, 399, 780, 1170, 820, 41, 1558, 760}
	bc, err := vc.Betweenness(g, sources, cfg)
	if err != nil {
		panic(err)
	}
	best, bestV := 0.0, graph.VertexID(0)
	for v, c := range bc.BC {
		if c > best {
			best, bestV = c, graph.VertexID(v)
		}
	}
	fmt.Printf("most congested intersection: (%d,%d) with betweenness %.1f over %d depots\n",
		int(bestV)/side, int(bestV)%side, best, len(sources))
	fmt.Printf("  betweenness took %d supersteps total — Θ(δ) per depot, the paper's P4 failure\n",
		bc.Stats.NumSupersteps())
}
