// Social-network analytics: the workload mix that motivates
// vertex-centric systems — influence ranking, community structure, and
// an assignment problem — all on one scale-free graph, with the
// engine's cost metrics shown per task.
package main

import (
	"fmt"
	"sort"

	"vcgraph/internal/bsp"
	"vcgraph/internal/graph"
	"vcgraph/internal/vc"
)

func main() {
	// A scale-free "follower" graph plus a sprinkle of isolated users.
	g := graph.PreferentialAttachment(5000, 2, 7)
	fmt.Printf("social graph: n=%d m=%d\n\n", g.N(), g.M())
	cfg := vc.Config{Workers: 4, Seed: 7}

	// 1. Influence: PageRank top-5.
	pr, err := vc.PreparePageRank(g, 0.85, 30, cfg)()
	if err != nil {
		panic(err)
	}
	type ranked struct {
		v graph.VertexID
		r float64
	}
	var rs []ranked
	for v, r := range pr.Ranks {
		rs = append(rs, ranked{graph.VertexID(v), r})
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].r > rs[j].r })
	fmt.Println("top-5 influencers (PageRank):")
	for _, x := range rs[:5] {
		fmt.Printf("  user %-5d rank %.5f degree %d\n", x.v, x.r, g.Degree(x.v))
	}
	report("PageRank", pr.Stats)

	// 2. Communities: connected components via Shiloach-Vishkin.
	cc, err := vc.SVCC(g, cfg)
	if err != nil {
		panic(err)
	}
	comps := map[graph.VertexID]int{}
	for _, c := range cc.Color {
		comps[c]++
	}
	fmt.Printf("connected components: %d (largest %d users)\n", len(comps), maxVal(comps))
	report("S-V components", cc.Stats)

	// 3. Moderation shifts: color the graph so that no two adjacent
	// users share a slot (Luby MIS coloring).
	col, err := vc.ColoringMIS(g, cfg)
	if err != nil {
		panic(err)
	}
	fmt.Printf("conflict-free slot assignment uses %d colors\n", col.K)
	report("Luby coloring", col.Stats)

	// 4. Buddy matching: pair users along the heaviest "affinity" edges.
	graph.RandomWeights(g, 99)
	mm, err := vc.MaxWeightMatching(g, cfg)
	if err != nil {
		panic(err)
	}
	pairs := 0
	for v, m := range mm.Match {
		if m != graph.NoVertex && graph.VertexID(v) < m {
			pairs++
		}
	}
	fmt.Printf("buddy matching: %d pairs, total affinity %.0f\n", pairs, mm.Weight)
	report("matching", mm.Stats)
}

func report(name string, st *bsp.Stats) {
	fmt.Printf("  [%s] supersteps=%d messages=%d PT=%.0f recv/deg=%.1f\n\n",
		name, st.NumSupersteps(), st.TotalMessages, st.MeasuredTPP(), st.MaxRecvPerDeg)
}

func maxVal(m map[graph.VertexID]int) int {
	best := 0
	for _, v := range m {
		if v > best {
			best = v
		}
	}
	return best
}
