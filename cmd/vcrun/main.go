// Command vcrun runs any of the library's vertex-centric algorithms on
// a generated graph and reports the result summary alongside the BSP
// cost metrics the paper is built on (supersteps, messages, local work,
// time-processor product, per-vertex balance ratios).
//
// Usage:
//
//	vcrun -algo pagerank -gen powerlaw -n 10000 -m 3 [-workers 4] [-seed 1] [-mode push|pull|auto]
//	vcrun -algo sssp -engine auto -gen path -n 100000
//
// -engine auto routes pagerank, sssp, and hashmin through the
// adaptive plan layer: a planner samples the graph, picks the initial
// engine/partition/mode, and may hand vertex state off to another
// engine live at a superstep barrier. Every decision is printed as a
// "plan:" line as it is taken.
//
// Algorithms: pagerank, prconverge, sssp, hashmin, sv, wcc, scc, bcc,
// diameter, doublesweep, euler, traversal, spanning, mcst, coloring,
// mis, matching, bipartite, betweenness, simulation, dualsim,
// strongsim, kcore, triangles, community, semicluster, hits, ppr, linkpred,
// blockcc (the block-centric engine), asynccc and asyncsssp (the
// asynchronous engine), gaspagerank (the GAS engine).
//
// Generators: random, connected, powerlaw, path, permpath, cycle,
// grid, star, tree, bintree, bipartite, directed, dcycle, sbm,
// smallworld.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"vcgraph/internal/async"
	"vcgraph/internal/blockcentric"
	"vcgraph/internal/bsp"
	"vcgraph/internal/gas"
	"vcgraph/internal/graph"
	"vcgraph/internal/plan"
	"vcgraph/internal/runtime"
	"vcgraph/internal/vc"
)

func main() {
	algo := flag.String("algo", "pagerank", "algorithm to run")
	gen := flag.String("gen", "connected", "graph generator")
	n := flag.Int("n", 1000, "vertices (or rows/side for grid)")
	m := flag.Int("m", 3000, "edges (or attachment degree for powerlaw)")
	seed := flag.Int64("seed", 1, "generator seed")
	workers := flag.Int("workers", 4, "BSP workers")
	src := flag.Int("src", 0, "source vertex (sssp, betweenness single-source)")
	load := flag.String("load", "", "load the graph from a vcgraph edge-list file instead of generating")
	input := flag.String("input", "", "load a real dataset: a SNAP/TSV edge list, or an mmap-backed .vcsr snapshot (by extension)")
	inputDirected := flag.Bool("input-directed", false, "treat -input SNAP/TSV pairs as directed edges")
	encoding := flag.String("encoding", "int32", "CSR destination-array encoding: int32 (flat) or packed (varint-delta blocks)")
	packedState := flag.Bool("packed-state", false, "bit-packed vertex-state stores for the small-domain algorithms (hashmin, kcore, coloring)")
	save := flag.String("save", "", "write the (generated or loaded) graph to an edge-list file and continue")
	dot := flag.String("dot", "", "also write the graph in Graphviz DOT format to this file")
	checkpoint := flag.Int("checkpoint", 0, "checkpoint every k supersteps (0 = off)")
	fullSnapshot := flag.Int("full-snapshot-every", 0, "store only every Nth checkpoint full; the checkpoints between are dirty-set deltas (0 or 1 = every checkpoint full)")
	faults := flag.Int64("faults", 0, "inject a seeded random fault plan (0 = none); implies -checkpoint 2 unless set")
	modeFlag := flag.String("mode", "auto", "message direction: push, pull, or auto (pull dense supersteps when the algorithm has a combiner)")
	engine := flag.String("engine", "", "empty = the algorithm's own engine; \"auto\" = adaptive plan layer (pagerank, sssp, hashmin)")
	timeout := flag.Duration("timeout", 0, "abort the run after this duration (0 = none)")
	mutations := flag.Int("mutations", 0, "after the run, apply this many seeded mutation batches and compare incremental recomputation against from-scratch (pagerank, sssp, hashmin)")
	mutBatch := flag.Int("mutbatch", 8, "mutations per batch in -mutations mode")
	mutSeed := flag.Int64("mutseed", 1, "mutation generator seed")
	flag.Parse()

	mode, err := runtime.ParseDirectionMode(*modeFlag)
	if err != nil {
		fail(err)
	}

	if *engine != "" && *engine != "auto" {
		fail(fmt.Errorf("unknown engine %q (empty or auto)", *engine))
	}
	if *packedState {
		switch {
		case *engine != "":
			fail(fmt.Errorf("-packed-state does not apply under -engine %s; it supports hashmin, kcore, and coloring on their own engine", *engine))
		case *algo != "hashmin" && *algo != "kcore" && *algo != "coloring":
			fail(fmt.Errorf("-packed-state supports only hashmin, kcore, and coloring; got -algo %s", *algo))
		}
	}

	var fplan *runtime.FaultPlan
	if *faults != 0 {
		fplan = runtime.NewFaultPlan(*faults)
		if *checkpoint == 0 {
			*checkpoint = 2
		}
	}

	var g *graph.Graph
	switch {
	case *input != "":
		g, err = loadInput(*input, *inputDirected)
	case *load != "":
		g, err = loadGraph(*load)
	default:
		g, err = makeGraph(*gen, *n, *m, *seed)
	}
	if err != nil {
		fail(err)
	}
	defer g.Close()
	switch *encoding {
	case "int32":
	case "packed":
		if !g.Adopted() { // a .vcsr snapshot is already packed
			g.Encoding = graph.EncodePacked
		}
	default:
		fail(fmt.Errorf("unknown encoding %q (int32 or packed)", *encoding))
	}
	if *save != "" {
		if err := saveGraph(*save, g); err != nil {
			fail(err)
		}
	}
	if *dot != "" {
		f, err := os.Create(*dot)
		if err != nil {
			fail(err)
		}
		if err := graph.WriteDOT(f, g, *algo); err != nil {
			f.Close()
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
	}
	source := *gen
	if *load != "" {
		source = "file:" + *load
	}
	if *input != "" {
		source = "input:" + *input
	}
	// The run goes through the job-scoped runtime: one scheduler over a
	// shared pool, the run submitted as a job so -timeout cancellation
	// aborts it at a superstep barrier instead of killing the process.
	sched := runtime.NewScheduler(*workers, 1)
	defer sched.Close()
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	share := *workers
	if strings.HasPrefix(*algo, "async") {
		share = 1 // the asynchronous engine is sequential
	}
	var summary string
	var stats *bsp.Stats
	start := time.Now()
	job := sched.Submit(ctx, *algo, share, func(j *runtime.Job) error {
		cfg := vc.Config{Workers: *workers, Seed: *seed, Mode: mode, PackedState: *packedState,
			RunEnv: runtime.RunEnv{CheckpointEvery: *checkpoint, FullSnapshotEvery: *fullSnapshot, Faults: fplan, Job: j}}
		var err error
		if *engine == "auto" {
			summary, stats, err = runAutoEngine(*algo, g, graph.VertexID(*src), cfg, *seed)
		} else {
			summary, stats, err = run(*algo, g, graph.VertexID(*src), cfg, *seed)
		}
		return err
	})
	if err := job.Wait(); err != nil {
		fail(err)
	}
	elapsed := time.Since(start)
	if *mutations > 0 {
		defer func() {
			if err := evolve(g, *algo, graph.VertexID(*src), *mutations, *mutBatch, *mutSeed); err != nil {
				fail(err)
			}
		}()
	}

	fmt.Printf("algorithm:  %s\n", *algo)
	fmt.Printf("graph:      %s n=%d m=%d (seed %d)\n", source, g.N(), g.M(), *seed)
	fmt.Printf("result:     %s\n", summary)
	fmt.Printf("wall time:  %v\n", elapsed.Round(time.Microsecond))
	fmt.Println()
	fmt.Printf("supersteps:            %d (mode %s, %d pulled)\n",
		stats.NumSupersteps(), mode, stats.PulledSupersteps())
	fmt.Printf("messages:              %d\n", stats.TotalMessages)
	fmt.Printf("local work units:      %d\n", stats.TotalWork)
	fmt.Printf("time-processor product: %.0f (P=%d, g=%.0f, L=%.0f)\n",
		stats.MeasuredTPP(), stats.Workers, bsp.DefaultModel.G, bsp.DefaultModel.L)
	fmt.Printf("balance (per-vertex max / degree):\n")
	fmt.Printf("  state %.2f  compute %.2f  sent %.2f  recv %.2f\n",
		stats.MaxStatePerDeg, stats.MaxComputePerDeg, stats.MaxSentPerDeg, stats.MaxRecvPerDeg)
	fmt.Printf("memory:                heap %+.2f MiB  allocated %.2f MiB\n",
		float64(stats.HeapInuseDelta)/(1<<20), float64(stats.TotalAllocDelta)/(1<<20))
	if rec := stats.Recovery; *checkpoint > 0 || rec.Faulted() {
		fmt.Printf("fault tolerance:\n")
		fmt.Printf("  checkpoints %d  rollbacks %d  redone supersteps %d\n",
			rec.CheckpointsSaved, rec.Rollbacks, rec.RedoneSupersteps)
		fmt.Printf("  corrupted checkpoints %d  dropped lanes %d  duplicated lanes %d\n",
			rec.CorruptedCheckpoints, rec.DroppedLanes, rec.DuplicatedLanes)
		if rec.DeltaCheckpointsSaved > 0 || rec.InvalidatedCheckpoints > 0 {
			fmt.Printf("  delta checkpoints %d  invalidated %d\n",
				rec.DeltaCheckpointsSaved, rec.InvalidatedCheckpoints)
		}
		if rec.CheckpointBytesFull > 0 || rec.CheckpointBytesDelta > 0 {
			fmt.Printf("  checkpoint bytes: full %d  delta %d\n",
				rec.CheckpointBytesFull, rec.CheckpointBytesDelta)
		}
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "vcrun:", err)
	os.Exit(1)
}

// loadInput loads a real dataset: an mmap-backed .vcsr snapshot when
// the extension says so, otherwise a SNAP/TSV edge list.
func loadInput(path string, directed bool) (*graph.Graph, error) {
	if strings.HasSuffix(path, ".vcsr") {
		return graph.OpenCSRFile(path)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return graph.ReadSNAP(f, graph.SNAPOptions{Directed: directed})
}

func loadGraph(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return graph.ReadEdgeList(f)
}

func saveGraph(path string, g *graph.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := graph.WriteEdgeList(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func makeGraph(gen string, n, m int, seed int64) (*graph.Graph, error) {
	switch gen {
	case "random":
		return graph.Random(n, m, seed), nil
	case "connected":
		return graph.RandomConnected(n, m, seed), nil
	case "powerlaw":
		return graph.PreferentialAttachment(n, m, seed), nil
	case "path":
		return graph.Path(n), nil
	case "cycle":
		return graph.Cycle(n), nil
	case "grid":
		return graph.Grid(n, n), nil
	case "star":
		return graph.Star(n), nil
	case "tree":
		return graph.RandomTree(n, seed), nil
	case "bintree":
		return graph.BalancedBinaryTree(n), nil
	case "bipartite":
		return graph.RandomBipartite(n/2, n-n/2, m, seed), nil
	case "directed":
		return graph.RandomDirected(n, m, seed), nil
	case "permpath":
		return graph.PermutedPath(n, seed), nil
	case "sbm":
		return graph.StochasticBlockModel(n, 4, 0.3, 0.01, seed), nil
	case "smallworld":
		return graph.WattsStrogatz(n, 3, 0.1, seed), nil
	case "dcycle":
		g := graph.New(n, true)
		for i := 0; i < n; i++ {
			g.AddEdge(graph.VertexID(i), graph.VertexID((i+1)%n))
		}
		g.EnsureIn()
		return g, nil
	default:
		return nil, fmt.Errorf("unknown generator %q", gen)
	}
}

func run(algo string, g *graph.Graph, src graph.VertexID, cfg vc.Config, seed int64) (string, *bsp.Stats, error) {
	switch algo {
	case "pagerank":
		res, err := vc.PreparePageRank(g, 0.85, 30, cfg)()
		if err != nil {
			return "", nil, err
		}
		best, bestV := 0.0, 0
		for v, r := range res.Ranks {
			if r > best {
				best, bestV = r, v
			}
		}
		return fmt.Sprintf("top vertex %d with rank %.6f", bestV, best), res.Stats, nil
	case "sssp":
		graph.RandomWeights(g, seed+1)
		res, err := vc.PrepareSSSP(g, src, cfg)()
		if err != nil {
			return "", nil, err
		}
		reached := 0
		for _, d := range res.Dist {
			if d < 1e300 {
				reached++
			}
		}
		return fmt.Sprintf("%d vertices reachable from %d", reached, src), res.Stats, nil
	case "hashmin":
		res, err := vc.PrepareHashMinCC(g, cfg)()
		if err != nil {
			return "", nil, err
		}
		return fmt.Sprintf("%d components", countDistinct(res.Color)), res.Stats, nil
	case "sv":
		res, err := vc.SVCC(g, cfg)
		if err != nil {
			return "", nil, err
		}
		return fmt.Sprintf("%d components, %d spanning-forest edges", countDistinct(res.Color), len(res.TreeEdges)), res.Stats, nil
	case "wcc":
		res, err := vc.WCC(g, cfg)
		if err != nil {
			return "", nil, err
		}
		return fmt.Sprintf("%d weak components", countDistinct(res.Color)), res.Stats, nil
	case "scc":
		res, err := vc.SCC(g, cfg)
		if err != nil {
			return "", nil, err
		}
		return fmt.Sprintf("%d strongly connected components", countDistinct(res.Comp)), res.Stats, nil
	case "bcc":
		res, err := vc.BCC(g, cfg)
		if err != nil {
			return "", nil, err
		}
		return fmt.Sprintf("%d biconnected components over %d edges", res.NumComponents, len(res.EdgeComp)), res.Stats, nil
	case "diameter":
		res, err := vc.Diameter(g, cfg)
		if err != nil {
			return "", nil, err
		}
		return fmt.Sprintf("diameter %d", res.Diameter), res.Stats, nil
	case "euler":
		res, err := vc.EulerTour(g, cfg)
		if err != nil {
			return "", nil, err
		}
		return fmt.Sprintf("tour of %d directed edges", 2*(g.N()-1)), res.Stats, nil
	case "traversal":
		res, err := vc.PrePostOrder(g, 0, cfg)
		if err != nil {
			return "", nil, err
		}
		return fmt.Sprintf("pre/post numbers computed; post(root)=%d", res.Post[0]), res.Stats, nil
	case "spanning":
		res, err := vc.SVCC(g, cfg)
		if err != nil {
			return "", nil, err
		}
		return fmt.Sprintf("spanning forest with %d edges", len(res.TreeEdges)), res.Stats, nil
	case "mcst":
		graph.RandomWeights(g, seed+1)
		res, err := vc.MCST(g, cfg)
		if err != nil {
			return "", nil, err
		}
		return fmt.Sprintf("minimum spanning forest: %d edges, weight %.0f", len(res.Edges), res.Weight), res.Stats, nil
	case "coloring":
		res, err := vc.ColoringMIS(g, cfg)
		if err != nil {
			return "", nil, err
		}
		return fmt.Sprintf("proper coloring with %d colors", res.K), res.Stats, nil
	case "matching":
		graph.RandomWeights(g, seed+1)
		res, err := vc.MaxWeightMatching(g, cfg)
		if err != nil {
			return "", nil, err
		}
		return fmt.Sprintf("matching weight %.0f", res.Weight), res.Stats, nil
	case "bipartite":
		res, err := vc.BipartiteMatching(g, g.N()/2, cfg)
		if err != nil {
			return "", nil, err
		}
		size := 0
		for _, m := range res.Match {
			if m != graph.NoVertex {
				size++
			}
		}
		return fmt.Sprintf("maximal matching of size %d", size/2), res.Stats, nil
	case "betweenness":
		res, err := vc.Betweenness(g, nil, cfg)
		if err != nil {
			return "", nil, err
		}
		best, bestV := 0.0, 0
		for v, c := range res.BC {
			if c > best {
				best, bestV = c, v
			}
		}
		return fmt.Sprintf("most central vertex %d (bc %.1f)", bestV, best), res.Stats, nil
	case "simulation", "dualsim", "strongsim":
		graph.RandomLabels(g, []string{"A", "B", "C"}, seed+2)
		q := graph.New(3, true)
		q.Labels = []string{"A", "B", "C"}
		q.AddEdge(0, 1)
		q.AddEdge(1, 2)
		q.EnsureIn()
		switch algo {
		case "simulation":
			res, err := vc.GraphSimulation(g, q, cfg)
			if err != nil {
				return "", nil, err
			}
			return fmt.Sprintf("%d matched data vertices", countNonzero(res.Match)), res.Stats, nil
		case "dualsim":
			res, err := vc.DualSimulation(g, q, cfg)
			if err != nil {
				return "", nil, err
			}
			return fmt.Sprintf("%d matched data vertices", countNonzero(res.Match)), res.Stats, nil
		default:
			res, err := vc.StrongSimulation(g, q, cfg)
			if err != nil {
				return "", nil, err
			}
			c := 0
			for _, b := range res.Centers {
				if b {
					c++
				}
			}
			return fmt.Sprintf("%d match centers", c), res.Stats, nil
		}
	case "prconverge":
		res, iters, err := vc.PageRankConverge(g, 0.85, 1e-9, cfg)
		if err != nil {
			return "", nil, err
		}
		return fmt.Sprintf("converged in %d supersteps", iters), res.Stats, nil
	case "doublesweep":
		res, err := vc.DoubleSweepDiameter(g, graph.NoVertex, cfg)
		if err != nil {
			return "", nil, err
		}
		return fmt.Sprintf("diameter >= %d (witness %d..%d)", res.LowerBound, res.From, res.To), res.Stats, nil
	case "mis":
		res, err := vc.MaximalIndependentSet(g, cfg)
		if err != nil {
			return "", nil, err
		}
		return fmt.Sprintf("maximal independent set of size %d", res.Size), res.Stats, nil
	case "semicluster":
		graph.RandomWeights(g, seed+1)
		res, err := vc.SemiClustering(g, vc.SemiClusterConfig{}, cfg)
		if err != nil {
			return "", nil, err
		}
		if len(res.Top) == 0 {
			return "no clusters", res.Stats, nil
		}
		return fmt.Sprintf("best cluster %v (score %.2f)", res.Top[0].Members, res.Top[0].Score), res.Stats, nil
	case "hits":
		res, err := vc.HITS(g, 20, cfg)
		if err != nil {
			return "", nil, err
		}
		bh, bhv := 0.0, 0
		for v, h := range res.Hub {
			if h > bh {
				bh, bhv = h, v
			}
		}
		return fmt.Sprintf("top hub %d (%.4f)", bhv, bh), res.Stats, nil
	case "asynccc":
		labels, res, err := async.PrepareConnectedComponents(g, async.Config{RunEnv: cfg.RunEnv})()
		if err != nil {
			return "", nil, err
		}
		return fmt.Sprintf("%d components in %d async updates", countDistinct(labels), res.Updates),
			res.Stats, nil
	case "asyncsssp":
		graph.RandomWeights(g, seed+1)
		_, res, err := async.PrepareSSSP(g, src, async.Config{RunEnv: cfg.RunEnv})()
		if err != nil {
			return "", nil, err
		}
		return fmt.Sprintf("shortest paths in %d async updates", res.Updates),
			res.Stats, nil
	case "gaspagerank":
		_, res, err := gas.PreparePageRank(g, 0.85, 1e-9, gas.Config{Workers: cfg.Workers, RunEnv: cfg.RunEnv})()
		if err != nil {
			return "", nil, err
		}
		return fmt.Sprintf("converged in %d GAS iterations", res.Iterations), res.Stats, nil
	case "ppr":
		res, err := vc.PersonalizedPageRank(g, src, 20000, 0.15, cfg)
		if err != nil {
			return "", nil, err
		}
		best, bestV := 0.0, 0
		for v, s := range res.Scores {
			if graph.VertexID(v) != src && s > best {
				best, bestV = s, v
			}
		}
		return fmt.Sprintf("closest vertex to %d: %d (ppr %.4f)", src, bestV, best), res.Stats, nil
	case "linkpred":
		preds, res, err := vc.LinkPrediction(g, src, 5, 20000, cfg)
		if err != nil {
			return "", nil, err
		}
		return fmt.Sprintf("suggested links for %d: %v", src, preds), res.Stats, nil
	case "kcore":
		res, err := vc.PrepareKCore(g, cfg)()
		if err != nil {
			return "", nil, err
		}
		return fmt.Sprintf("degeneracy %d", res.Degeneracy), res.Stats, nil
	case "triangles":
		res, err := vc.Triangles(g, cfg)
		if err != nil {
			return "", nil, err
		}
		return fmt.Sprintf("%d triangles", res.Total), res.Stats, nil
	case "community":
		res, err := vc.LabelPropagation(g, 0, cfg)
		if err != nil {
			return "", nil, err
		}
		distinct := map[graph.VertexID]bool{}
		for _, l := range res.Label {
			distinct[l] = true
		}
		return fmt.Sprintf("%d communities, modularity %.3f", len(distinct), res.Modularity), res.Stats, nil
	case "blockcc":
		res, err := blockcentric.PrepareConnectedComponents(g, blockcentric.Config{Blocks: cfg.Workers, RunEnv: cfg.RunEnv})()
		if err != nil {
			return "", nil, err
		}
		return fmt.Sprintf("%d components (block-centric, %d blocks)", countDistinct(res.Color), cfg.Workers), res.Stats, nil
	default:
		return "", nil, fmt.Errorf("unknown algorithm %q (see -h)", strings.ToLower(algo))
	}
}

// runAutoEngine routes an algorithm through the adaptive plan layer
// (-engine auto), printing each plan decision as it is taken.
func runAutoEngine(algo string, g *graph.Graph, src graph.VertexID, cfg vc.Config, seed int64) (string, *bsp.Stats, error) {
	acfg := vc.AutoConfig{Config: cfg, Trace: func(d plan.Decision) {
		fmt.Printf("plan: step=%d engine=%s partition=%s mode=%s fcs=%d (%s)\n",
			d.Step, d.Plan.Engine, d.Plan.Partition, d.Plan.Mode, d.Plan.FCS, d.Reason)
	}}
	switch algo {
	case "pagerank":
		res, ar, err := vc.PrepareAutoPageRank(g, 0.85, 30, acfg)()
		if err != nil {
			return "", nil, err
		}
		best, bestV := 0.0, 0
		for v, r := range res.Ranks {
			if r > best {
				best, bestV = r, v
			}
		}
		return fmt.Sprintf("top vertex %d with rank %.6f (%d plan segments)", bestV, best, ar.Segments), ar.Stats, nil
	case "sssp":
		graph.RandomWeights(g, seed+1)
		res, ar, err := vc.PrepareAutoSSSP(g, src, acfg)()
		if err != nil {
			return "", nil, err
		}
		reached := 0
		for _, d := range res.Dist {
			if d < 1e300 {
				reached++
			}
		}
		return fmt.Sprintf("%d vertices reachable from %d (%d plan segments)", reached, src, ar.Segments), ar.Stats, nil
	case "hashmin":
		res, ar, err := vc.PrepareAutoHashMinCC(g, acfg)()
		if err != nil {
			return "", nil, err
		}
		return fmt.Sprintf("%d components (%d plan segments)", countDistinct(res.Color), ar.Segments), ar.Stats, nil
	}
	return "", nil, fmt.Errorf("engine auto supports pagerank, sssp, and hashmin; got %q", algo)
}

func countDistinct(xs []graph.VertexID) int {
	set := map[graph.VertexID]bool{}
	for _, x := range xs {
		set[x] = true
	}
	return len(set)
}

func countNonzero(xs []uint64) int {
	c := 0
	for _, x := range xs {
		if x != 0 {
			c++
		}
	}
	return c
}
