package core

import (
	"math"

	"vcgraph/internal/bsp"
	"vcgraph/internal/graph"
	"vcgraph/internal/seq"
	"vcgraph/internal/vc"
)

// The experiment registry: one entry per Table 1 row. Workloads are
// chosen to expose the asymptotics behind each verdict (see the Notes
// fields and DESIGN.md §4); scales are a 16–64x spread so that log-
// factor growth clears bsp.GrowthSlack.

func measurement(sc Scale, m int, stats *bsp.Stats, ops *seq.Ops) bsp.Measurement {
	return bsp.Measurement{
		N:       sc.N,
		M:       m,
		PT:      stats.MeasuredTPP(),
		SeqOps:  float64(ops.N),
		VCStats: stats,
	}
}

// cascadeSim builds the adversarial data graph for the simulation rows:
// a reversed path of A-labeled vertices (v_i -> v_{i-1}) whose matchSets
// collapse one per superstep starting at v_0, plus a hub adjacent to
// every path vertex that must rescan its whole child list after every
// collapse, and a 2-cycle partner keeping the hub alive. This realizes
// the Θ(m) supersteps × Θ(m) per-superstep work behind the paper's
// O(m²(n_q+m_q)) bound. The query is the single node A with a self-loop.
func cascadeSim(n int) (*graph.Graph, *graph.Graph) {
	k := n - 2 // path vertices; hub = n-2, partner = n-1
	g := graph.New(n, true)
	g.Labels = make([]string, n)
	for i := range g.Labels {
		g.Labels[i] = "A"
	}
	for i := 1; i < k; i++ {
		g.AddEdge(graph.VertexID(i), graph.VertexID(i-1))
	}
	hub := graph.VertexID(n - 2)
	partner := graph.VertexID(n - 1)
	for i := 0; i < k; i++ {
		g.AddEdge(hub, graph.VertexID(i))
	}
	g.AddEdge(hub, partner)
	g.AddEdge(partner, hub)
	g.EnsureIn()
	g.SortAdjacency()

	q := graph.New(1, true)
	q.Labels = []string{"A"}
	q.AddEdge(0, 0)
	q.EnsureIn()
	return g, q
}

// cascadeEdgeQuery is the two-node query A -> A (undirected diameter 1)
// used by the strong-simulation row over the cascade graph: the dual
// stage collapses quadratically while the sequential baseline stays
// near-linear, and the radius-1 balls exercise the gathering stage.
func cascadeEdgeQuery() *graph.Graph {
	q := graph.New(2, true)
	q.Labels = []string{"A", "A"}
	q.AddEdge(0, 1)
	q.EnsureIn()
	return q
}

// simQuery builds the fixed 3-node path query A -> B -> C used by the
// strong-simulation row; its undirected diameter is 2, giving balls of
// radius 2.
func simQuery() *graph.Graph {
	q := graph.New(3, true)
	q.Labels = []string{"A", "B", "C"}
	q.AddEdge(0, 1)
	q.AddEdge(1, 2)
	q.EnsureIn()
	return q
}

// directedCycle returns the directed cycle 0->1->...->n-1->0.
func directedCycle(n int) *graph.Graph {
	g := graph.New(n, true)
	for i := 0; i < n; i++ {
		g.AddEdge(graph.VertexID(i), graph.VertexID((i+1)%n))
	}
	g.EnsureIn()
	return g
}

// directedPath returns the directed straight-line graph 0->1->...->n-1.
func directedPath(n int) *graph.Graph {
	g := graph.New(n, true)
	for i := 0; i < n-1; i++ {
		g.AddEdge(graph.VertexID(i), graph.VertexID(i+1))
	}
	g.EnsureIn()
	return g
}

// increasingPath returns a path whose edge weights strictly increase
// toward the high end: only the heaviest live edge is locally dominant,
// so locally-heaviest matching needs Θ(n) rounds — the K = Θ(n) worst
// case behind the paper's O(Km) bound for row 13.
func increasingPath(n int) *graph.Graph {
	g := graph.New(n, false)
	for i := 0; i < n-1; i++ {
		g.AddWeightedEdge(graph.VertexID(i), graph.VertexID(i+1), float64(i+1))
	}
	return g
}

var simAlphabet = []string{"A", "B", "C", "D"}

// Experiments returns the full Table 1 registry.
func Experiments() []*Experiment {
	return []*Experiment{
		{
			ID: "T1.01", Row: 1, Workload: "Diameter (Unweighted)",
			VCAlgo: "eccentricity flooding [15]", VCComplexity: "O(mn)",
			SeqAlgo: "BFS from every vertex [19]", SeqComplexity: "O(mn)",
			PaperMoreWork: false, PaperBPPA: false,
			Small: Scale{N: 300, M: 900, Seed: 1}, Large: Scale{N: 1200, M: 3600, Seed: 1},
			Notes: "connected random graph; Θ(n) history per vertex fails P1/P3, work matches BFS-all-pairs",
			Run: func(sc Scale, cfg vc.Config) (bsp.Measurement, error) {
				g := graph.RandomConnected(sc.N, sc.M, sc.Seed)
				res, err := vc.Diameter(g, cfg)
				if err != nil {
					return bsp.Measurement{}, err
				}
				var ops seq.Ops
				seq.Eccentricities(g, &ops)
				return measurement(sc, g.M(), res.Stats, &ops), nil
			},
		},
		{
			ID: "T1.02", Row: 2, Workload: "PageRank",
			VCAlgo: "Pregel PageRank [12]", VCComplexity: "O(mK)",
			SeqAlgo: "power iteration", SeqComplexity: "O(mK)",
			PaperMoreWork: false, PaperBPPA: false,
			Small: Scale{N: 1000, M: 3, Seed: 2}, Large: Scale{N: 8000, M: 3, Seed: 2},
			Notes: "preferential-attachment graph, K=30; balanced (P1–P3) but K exceeds log2 n, the paper's P4 argument",
			JudgeBPPA: func(small, large *bsp.Stats) bsp.BPPAVerdict {
				v := bsp.CheckBPPA(small, large)
				// The paper's argument: K (≈30 supersteps) is larger
				// than O(log n); judge P4 absolutely.
				v.P4Supersteps = float64(v.SuperstepsLarge) <= math.Log2(float64(large.N))+1
				return v
			},
			Run: func(sc Scale, cfg vc.Config) (bsp.Measurement, error) {
				g := graph.PreferentialAttachment(sc.N, sc.M, sc.Seed)
				res, err := vc.PreparePageRank(g, 0.85, 30, cfg)()
				if err != nil {
					return bsp.Measurement{}, err
				}
				var ops seq.Ops
				seq.PageRank(g, 0.85, 30, &ops)
				return measurement(sc, g.M(), res.Stats, &ops), nil
			},
		},
		{
			ID: "T1.03", Row: 3, Workload: "Connected Component (Hash-Min)",
			VCAlgo: "Hash-Min [12]", VCComplexity: "O(mδ)",
			SeqAlgo: "BFS [8]", SeqComplexity: "O(m+n)",
			PaperMoreWork: true, PaperBPPA: false,
			Small: Scale{N: 512, Seed: 3}, Large: Scale{N: 8192, Seed: 3},
			Notes: "straight-line graph (the paper's witness): δ = n-1, so O(δ) supersteps and O(mδ) work",
			Run: func(sc Scale, cfg vc.Config) (bsp.Measurement, error) {
				g := graph.Path(sc.N)
				res, err := vc.PrepareHashMinCC(g, cfg)()
				if err != nil {
					return bsp.Measurement{}, err
				}
				var ops seq.Ops
				seq.Components(g, &ops)
				return measurement(sc, g.M(), res.Stats, &ops), nil
			},
		},
		{
			ID: "T1.04", Row: 4, Workload: "Connected Component (S-V)",
			VCAlgo: "Shiloach-Vishkin [25]", VCComplexity: "O((m+n)log n)",
			SeqAlgo: "BFS [8]", SeqComplexity: "O(m+n)",
			PaperMoreWork: true, PaperBPPA: false,
			Small: Scale{N: 256, Seed: 4}, Large: Scale{N: 8192, Seed: 4},
			Notes: "straight-line graph; O(log n) rounds but roots receive ≫ d(v) messages (P3 fails)",
			Run: func(sc Scale, cfg vc.Config) (bsp.Measurement, error) {
				g := graph.Path(sc.N)
				res, err := vc.SVCC(g, cfg)
				if err != nil {
					return bsp.Measurement{}, err
				}
				var ops seq.Ops
				seq.Components(g, &ops)
				return measurement(sc, g.M(), res.Stats, &ops), nil
			},
		},
		{
			ID: "T1.05", Row: 5, Workload: "Bi-Connected Component",
			VCAlgo: "Tarjan-Vishkin pipeline [25]", VCComplexity: "O((m+n)log n)",
			SeqAlgo: "Hopcroft-Tarjan DFS [8]", SeqComplexity: "O(m+n)",
			PaperMoreWork: true, PaperBPPA: false,
			Small: Scale{N: 512, Seed: 5}, Large: Scale{N: 8192, Seed: 5},
			Notes: "cycle graph (one big biconnected component): exposes the S-V and list-ranking log factors of the pipeline (S-V + Euler tour + 3×list-ranking + aux-graph Hash-Min)",
			Run: func(sc Scale, cfg vc.Config) (bsp.Measurement, error) {
				g := graph.Cycle(sc.N)
				res, err := vc.BCC(g, cfg)
				if err != nil {
					return bsp.Measurement{}, err
				}
				var ops seq.Ops
				seq.BCC(g, &ops)
				return measurement(sc, g.M(), res.Stats, &ops), nil
			},
		},
		{
			ID: "T1.06", Row: 6, Workload: "Weakly Connected Component",
			VCAlgo: "S-V on underlying graph [25]", VCComplexity: "O((m+n)log n)",
			SeqAlgo: "BFS [8]", SeqComplexity: "O(m+n)",
			PaperMoreWork: true, PaperBPPA: false,
			Small: Scale{N: 256, Seed: 6}, Large: Scale{N: 8192, Seed: 6},
			Notes: "directed straight-line graph; S-V over the underlying undirected path exposes the log-factor",
			Run: func(sc Scale, cfg vc.Config) (bsp.Measurement, error) {
				g := directedPath(sc.N)
				res, err := vc.WCC(g, cfg)
				if err != nil {
					return bsp.Measurement{}, err
				}
				var ops seq.Ops
				seq.Components(g.Underlying(), &ops)
				return measurement(sc, g.M(), res.Stats, &ops), nil
			},
		},
		{
			ID: "T1.07", Row: 7, Workload: "Strongly Connected Component",
			VCAlgo: "forward/backward min-label [25]", VCComplexity: "O((m+n)log n)",
			SeqAlgo: "Tarjan DFS [21]", SeqComplexity: "O(m+n)",
			PaperMoreWork: true, PaperBPPA: false,
			Small: Scale{N: 256, Seed: 7}, Large: Scale{N: 4096, Seed: 7},
			Notes: "directed cycle 0->1->...->n-1->0 (one SCC): every vertex's forward label improves once per superstep until the minimum arrives, the Θ(mδ) analogue of Hash-Min's path",
			Run: func(sc Scale, cfg vc.Config) (bsp.Measurement, error) {
				g := directedCycle(sc.N)
				res, err := vc.SCC(g, cfg)
				if err != nil {
					return bsp.Measurement{}, err
				}
				var ops seq.Ops
				seq.SCC(g, &ops)
				return measurement(sc, g.M(), res.Stats, &ops), nil
			},
		},
		{
			ID: "T1.08", Row: 8, Workload: "Euler Tour of Tree",
			VCAlgo: "2-superstep next-pointer exchange [25]", VCComplexity: "O(n)",
			SeqAlgo: "DFS", SeqComplexity: "O(n)",
			PaperMoreWork: false, PaperBPPA: true,
			Small: Scale{N: 1024, Seed: 8}, Large: Scale{N: 16384, Seed: 8},
			Notes: "random tree; the benchmark's only work-optimal BPPA",
			Run: func(sc Scale, cfg vc.Config) (bsp.Measurement, error) {
				t := graph.RandomTree(sc.N, sc.Seed)
				res, err := vc.EulerTour(t, cfg)
				if err != nil {
					return bsp.Measurement{}, err
				}
				var ops seq.Ops
				seq.EulerTour(t, 0, &ops)
				return measurement(sc, t.M(), res.Stats, &ops), nil
			},
		},
		{
			ID: "T1.09", Row: 9, Workload: "Pre- & Post-order Tree Traversal",
			VCAlgo: "Euler tour + list-ranking [25]", VCComplexity: "O(n log n)",
			SeqAlgo: "DFS", SeqComplexity: "O(n)",
			PaperMoreWork: true, PaperBPPA: true,
			Small: Scale{N: 256, Seed: 9}, Large: Scale{N: 16384, Seed: 9},
			Notes: "random tree; list-ranking's pointer jumping costs the extra log n",
			Run: func(sc Scale, cfg vc.Config) (bsp.Measurement, error) {
				t := graph.RandomTree(sc.N, sc.Seed)
				res, err := vc.PrePostOrder(t, 0, cfg)
				if err != nil {
					return bsp.Measurement{}, err
				}
				var ops seq.Ops
				seq.PrePostOrder(t, 0, &ops)
				return measurement(sc, t.M(), res.Stats, &ops), nil
			},
		},
		{
			ID: "T1.10", Row: 10, Workload: "Spanning Tree",
			VCAlgo: "S-V with hook-edge recording [22,25]", VCComplexity: "O((m+n)log n)",
			SeqAlgo: "BFS", SeqComplexity: "O(m+n)",
			PaperMoreWork: true, PaperBPPA: false,
			Small: Scale{N: 256, Seed: 10}, Large: Scale{N: 8192, Seed: 10},
			Notes: "straight-line graph; hook edges of S-V form the spanning forest",
			Run: func(sc Scale, cfg vc.Config) (bsp.Measurement, error) {
				g := graph.Path(sc.N)
				res, err := vc.SVCC(g, cfg)
				if err != nil {
					return bsp.Measurement{}, err
				}
				var ops seq.Ops
				seq.SpanningForest(g, &ops)
				return measurement(sc, g.M(), res.Stats, &ops), nil
			},
		},
		{
			ID: "T1.11", Row: 11, Workload: "Minimum Cost Spanning Tree",
			VCAlgo: "Boruvka [20]", VCComplexity: "O(δm log n)",
			SeqAlgo: "radix Kruskal (for Chazelle [3])", SeqComplexity: "O(m α(m,n))",
			PaperMoreWork: true, PaperBPPA: false,
			Small: Scale{N: 128, M: 384, Seed: 11}, Large: Scale{N: 16384, M: 49152, Seed: 11},
			Notes: "connected random graph, distinct weights; baseline is radix-sort Kruskal (near-linear like Chazelle); super-vertices absorb whole edge lists (P3 fails)",
			Run: func(sc Scale, cfg vc.Config) (bsp.Measurement, error) {
				g := graph.RandomConnected(sc.N, sc.M, sc.Seed)
				graph.RandomWeights(g, sc.Seed+100)
				res, err := vc.MCST(g, cfg)
				if err != nil {
					return bsp.Measurement{}, err
				}
				var ops seq.Ops
				seq.MSTKruskalRadix(g, &ops)
				return measurement(sc, g.M(), res.Stats, &ops), nil
			},
		},
		{
			ID: "T1.12", Row: 12, Workload: "Graph Coloring with MIS",
			VCAlgo: "Luby MIS phases [20]", VCComplexity: "O(Km log n)",
			SeqAlgo: "lexicographically-first MIS", SeqComplexity: "O(Km)",
			PaperMoreWork: true, PaperBPPA: false,
			Small: Scale{N: 256, M: 1024, Seed: 12}, Large: Scale{N: 8192, M: 32768, Seed: 12},
			Notes: "random graph; each of the K color phases costs expected O(log n) supersteps. P4 judged by the paper's absolute argument: total supersteps O(K log n) with non-constant K far exceed log n",
			JudgeBPPA: func(small, large *bsp.Stats) bsp.BPPAVerdict {
				v := bsp.CheckBPPA(small, large)
				v.P4Supersteps = float64(v.SuperstepsLarge) <= math.Log2(float64(large.N))+1
				return v
			},
			Run: func(sc Scale, cfg vc.Config) (bsp.Measurement, error) {
				g := graph.Random(sc.N, sc.M, sc.Seed)
				res, err := vc.ColoringMIS(g, cfg)
				if err != nil {
					return bsp.Measurement{}, err
				}
				var ops seq.Ops
				seq.ColoringMIS(g, &ops)
				return measurement(sc, g.M(), res.Stats, &ops), nil
			},
		},
		{
			ID: "T1.13", Row: 13, Workload: "Maximum Weight Matching",
			VCAlgo: "locally-heaviest rounds [20]", VCComplexity: "O(Km)",
			SeqAlgo: "Preis (path-growing) [16]", SeqComplexity: "O(m)",
			PaperMoreWork: true, PaperBPPA: false,
			Small: Scale{N: 512, Seed: 13}, Large: Scale{N: 4096, Seed: 13},
			Notes: "path with strictly increasing weights: only the heaviest live edge is locally dominant, so K = Θ(n) rounds — the worst case behind O(Km)",
			Run: func(sc Scale, cfg vc.Config) (bsp.Measurement, error) {
				g := increasingPath(sc.N)
				res, err := vc.MaxWeightMatching(g, cfg)
				if err != nil {
					return bsp.Measurement{}, err
				}
				var ops seq.Ops
				seq.MaxWeightMatchingPGA(g, &ops)
				return measurement(sc, g.M(), res.Stats, &ops), nil
			},
		},
		{
			ID: "T1.14", Row: 14, Workload: "Bipartite Maximal Matching",
			VCAlgo: "4-phase random matching [12]", VCComplexity: "O(m log n)",
			SeqAlgo: "greedy", SeqComplexity: "O(m+n)",
			PaperMoreWork: true, PaperBPPA: true,
			Small: Scale{N: 256, M: 1024, Seed: 14}, Large: Scale{N: 8192, M: 32768, Seed: 14},
			Notes: "random bipartite graph (n/2 per side); O(log n) request/grant rounds of O(m) messages",
			Run: func(sc Scale, cfg vc.Config) (bsp.Measurement, error) {
				nl := sc.N / 2
				g := graph.RandomBipartite(nl, sc.N-nl, sc.M, sc.Seed)
				res, err := vc.BipartiteMatching(g, nl, cfg)
				if err != nil {
					return bsp.Measurement{}, err
				}
				var ops seq.Ops
				seq.GreedyBipartiteMatching(g, nl, &ops)
				return measurement(sc, g.M(), res.Stats, &ops), nil
			},
		},
		{
			ID: "T1.15", Row: 15, Workload: "Betweenness Centrality (Unweighted)",
			VCAlgo: "BSP Brandes [18]", VCComplexity: "O(mn)",
			SeqAlgo: "Brandes [1]", SeqComplexity: "O(mn)",
			PaperMoreWork: false, PaperBPPA: false,
			Small: Scale{N: 144, Seed: 15}, Large: Scale{N: 2304, Seed: 15},
			Notes: "√n × √n grid, 8 fixed sources; per-source supersteps track δ = Θ(√n), failing P4",
			Run: func(sc Scale, cfg vc.Config) (bsp.Measurement, error) {
				side := int(math.Round(math.Sqrt(float64(sc.N))))
				g := graph.Grid(side, side)
				sources := gridSources(g.N(), 8)
				res, err := vc.Betweenness(g, sources, cfg)
				if err != nil {
					return bsp.Measurement{}, err
				}
				var ops seq.Ops
				seq.Betweenness(g, sources, &ops)
				return measurement(Scale{N: g.N()}, g.M(), res.Stats, &ops), nil
			},
		},
		{
			ID: "T1.16", Row: 16, Workload: "Single-Source Shortest Path",
			VCAlgo: "Pregel Bellman-Ford [12]", VCComplexity: "O(mn)",
			SeqAlgo: "Dijkstra (binary heap for Fibonacci)", SeqComplexity: "O(m + n log n)",
			PaperMoreWork: true, PaperBPPA: false,
			Small: Scale{N: 256, Seed: 16}, Large: Scale{N: 16384, Seed: 16},
			Notes: "weighted √n×√n grid: Θ(√n) supersteps and repeated distance corrections vs. Dijkstra's near-linear scan",
			Run: func(sc Scale, cfg vc.Config) (bsp.Measurement, error) {
				side := int(math.Round(math.Sqrt(float64(sc.N))))
				g := graph.Grid(side, side)
				graph.RandomWeights(g, sc.Seed+100)
				res, err := vc.PrepareSSSP(g, 0, cfg)()
				if err != nil {
					return bsp.Measurement{}, err
				}
				var ops seq.Ops
				seq.Dijkstra(g, 0, &ops)
				return measurement(Scale{N: g.N()}, g.M(), res.Stats, &ops), nil
			},
		},
		{
			ID: "T1.17", Row: 17, Workload: "All-pair Shortest Paths (Unweighted)",
			VCAlgo: "eccentricity flooding [15]", VCComplexity: "O(mn)",
			SeqAlgo: "BFS from every vertex (for Chan [2])", SeqComplexity: "O(mn)",
			PaperMoreWork: false, PaperBPPA: false,
			Small: Scale{N: 300, M: 900, Seed: 17}, Large: Scale{N: 1200, M: 3600, Seed: 17},
			Notes: "same flooding run as row 1; first-arrival supersteps are the APSP matrix",
			Run: func(sc Scale, cfg vc.Config) (bsp.Measurement, error) {
				g := graph.RandomConnected(sc.N, sc.M, sc.Seed)
				res, err := vc.Diameter(g, cfg)
				if err != nil {
					return bsp.Measurement{}, err
				}
				var ops seq.Ops
				seq.APSPUnweighted(g, &ops)
				return measurement(sc, g.M(), res.Stats, &ops), nil
			},
		},
		{
			ID: "T1.18", Row: 18, Workload: "Graph Simulation",
			VCAlgo: "matchSet refinement [5]", VCComplexity: "O(m²(nq+mq))",
			SeqAlgo: "Henzinger et al. [7]", SeqComplexity: "O((m+n)(mq+nq))",
			PaperMoreWork: true, PaperBPPA: false,
			Small: Scale{N: 256, Seed: 18}, Large: Scale{N: 2048, Seed: 18},
			Notes: "cascade graph: one matchSet collapses per superstep while a hub rescans its whole child list — the Θ(m) supersteps × Θ(m) work worst case",
			Run: func(sc Scale, cfg vc.Config) (bsp.Measurement, error) {
				g, q := cascadeSim(sc.N)
				res, err := vc.GraphSimulation(g, q, cfg)
				if err != nil {
					return bsp.Measurement{}, err
				}
				var ops seq.Ops
				seq.GraphSimulation(g, q, &ops)
				return measurement(sc, g.M(), res.Stats, &ops), nil
			},
		},
		{
			ID: "T1.19", Row: 19, Workload: "Dual Simulation",
			VCAlgo: "bidirectional matchSet refinement [5]", VCComplexity: "O(m²(nq+mq))",
			SeqAlgo: "Ma et al. [11]", SeqComplexity: "O((m+n)(mq+nq))",
			PaperMoreWork: true, PaperBPPA: false,
			Small: Scale{N: 256, Seed: 19}, Large: Scale{N: 2048, Seed: 19},
			Notes: "same cascade workload as row 18 with parent conditions active",
			Run: func(sc Scale, cfg vc.Config) (bsp.Measurement, error) {
				g, q := cascadeSim(sc.N)
				res, err := vc.DualSimulation(g, q, cfg)
				if err != nil {
					return bsp.Measurement{}, err
				}
				var ops seq.Ops
				seq.DualSimulation(g, q, &ops)
				return measurement(sc, g.M(), res.Stats, &ops), nil
			},
		},
		{
			ID: "T1.20", Row: 20, Workload: "Strong Simulation",
			VCAlgo: "dual sim + ball gathering [5]", VCComplexity: "O(m²n(nq+mq))",
			SeqAlgo: "Ma et al. [11]", SeqComplexity: "O(n(m+n)(mq+nq))",
			PaperMoreWork: true, PaperBPPA: false,
			Small: Scale{N: 128, Seed: 20}, Large: Scale{N: 1024, Seed: 20},
			Notes: "cascade graph with the two-node query A->A: the distributed dual-sim stage collapses one matchSet per superstep (Θ(m) supersteps, hub rescans) before radius-1 ball gathering, vs. the near-linear Ma et al. baseline",
			Run: func(sc Scale, cfg vc.Config) (bsp.Measurement, error) {
				g, _ := cascadeSim(sc.N)
				q := cascadeEdgeQuery()
				res, err := vc.StrongSimulation(g, q, cfg)
				if err != nil {
					return bsp.Measurement{}, err
				}
				var ops seq.Ops
				seq.StrongSimulation(g, q, &ops)
				return measurement(sc, g.M(), res.Stats, &ops), nil
			},
		},
	}
}

// gridSources returns k deterministic, spread-out source vertices.
func gridSources(n, k int) []graph.VertexID {
	if k > n {
		k = n
	}
	out := make([]graph.VertexID, k)
	for i := 0; i < k; i++ {
		out[i] = graph.VertexID(i * n / k)
	}
	return out
}
