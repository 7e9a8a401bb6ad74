// Adaptive plan layer orchestration: run an algorithm under engine
// "auto". A planner (internal/plan) picks the starting configuration
// from sampled graph statistics, every engine run is consulted at its
// superstep barriers through runtime.DriverConfig.Replan, and when the
// planner decides mid-run that another configuration wins, the engine
// aborts with runtime.ErrHandoff, the orchestrator exports the vertex
// values at the barrier, and a freshly prepared engine resumes them.
//
// Handoff protocol (warm restart, not state transplant): only vertex
// values cross the boundary — never inboxes, halt flags, or worklists.
// The destination engine starts with every vertex active and
// re-announces state in its first superstep. For the monotone min-fold
// algorithms (Hash-Min components, SSSP relaxation) a re-announced
// label dominates any message that was in flight at the barrier, so
// the fixpoint is byte-identical to an unswitched run. For fixed-K
// PageRank the orchestrator tracks how many rank folds each segment
// completed and runs the remainder; the first superstep after a
// handoff regenerates exactly the messages that were discarded (the
// ranks they derive from are unchanged), so the k-th iterate is again
// bit-identical within the canonical fold-order family (single-worker
// pregel, gas, block-centric push over a range partition).
//
// All segments run against one pinned CSR snapshot: each engine is
// handed Config.Snapshot plus a partition derived from that snapshot,
// so a handoff never observes concurrent graph growth.
package vc

import (
	"errors"
	"fmt"
	"math"

	"vcgraph/internal/async"
	"vcgraph/internal/blockcentric"
	"vcgraph/internal/bsp"
	"vcgraph/internal/gas"
	"vcgraph/internal/graph"
	"vcgraph/internal/plan"
	"vcgraph/internal/pregel"
	"vcgraph/internal/runtime"
)

// AutoConfig configures an engine-"auto" run: the shared engine knobs
// plus the planner.
type AutoConfig struct {
	Config
	// Planner holds the replanning knobs; nil means defaults.
	Planner *plan.Planner
	// Script, when non-empty, forces the decision sequence instead of
	// consulting the planner: Script[0] replaces the initial decision
	// and every later entry forces a live handoff to its Plan at the
	// first barrier at or past its Step. This is how the differential
	// tests pin a switch at an exact superstep; it is also reachable
	// from benchmarks that want a fixed plan under the auto harness.
	Script []plan.Decision
	// Trace, when non-nil, observes each decision as it is taken
	// (CLIs print them; the daemon logs them).
	Trace func(plan.Decision)
}

// AutoResult reports what the plan layer did around the algorithm
// result: the merged statistics of all segments and the decision log.
type AutoResult struct {
	Stats      *bsp.Stats      `json:"-"`
	Decisions  []plan.Decision `json:"decisions"`
	GraphStats plan.GraphStats `json:"graph"`
	Segments   int             `json:"segments"`
}

// autoWorkers resolves the worker share every segment runs with. All
// segments must agree (the job lease is fixed), so the orchestrator
// resolves it once instead of leaning on per-engine defaults.
func autoWorkers(c Config) int {
	if c.Job != nil {
		return c.Job.Workers()
	}
	if c.Workers > 0 {
		return c.Workers
	}
	return 4
}

// segmentFn runs one engine segment under the given decision, seeded
// with exported values (nil on the first segment), wiring hook as the
// engine's Replan callback. It returns the vertex values at exit —
// final on success, at the handoff barrier on runtime.ErrHandoff — and
// the segment's statistics.
type segmentFn[V any] func(d plan.Decision, seed []V, hook func(step, pending int) bool) ([]V, *bsp.Stats, error)

// runAuto is the engine-agnostic segment loop shared by the three
// auto algorithms.
func runAuto[V any](cfg AutoConfig, gs plan.GraphStats, caps plan.Caps, run segmentFn[V]) ([]V, *AutoResult, error) {
	planner := cfg.Planner
	scripted := len(cfg.Script) > 0
	cur := planner.Initial(gs, caps)
	if scripted {
		cur = cfg.Script[0]
		if cur.Reason == "" {
			cur.Reason = "scripted"
		}
	}
	if cfg.Trace != nil {
		cfg.Trace(cur)
	}
	res := &AutoResult{Decisions: []plan.Decision{cur}, GraphStats: gs}
	var segStats []*bsp.Stats
	var hist []bsp.SuperstepStats
	var seed []V
	globalBase := 0
	switches := 0
	scriptIdx := 1
	for {
		var next plan.Decision
		handoff := false
		hook := func(step, pending int) bool {
			// The driver consults Replan at every barrier; pending is
			// the frontier entering the next superstep. Accumulate it
			// as signal history so the planner sees the run's shape
			// without reaching into a live engine.
			hist = append(hist, bsp.SuperstepStats{Frontier: int64(pending)})
			if step == 0 {
				return false
			}
			globalAt := globalBase + step
			if scripted {
				if scriptIdx < len(cfg.Script) && globalAt >= cfg.Script[scriptIdx].Step {
					next = cfg.Script[scriptIdx]
					next.Step = globalAt
					if next.Reason == "" {
						next.Reason = "scripted"
					}
					scriptIdx++
					handoff = true
				}
				return handoff
			}
			if globalAt%planner.ReplanEvery() != 0 {
				return false
			}
			sig := planner.HarvestWindow(hist, gs.N)
			d, ok := planner.Replan(cur.Plan, gs, caps, sig, globalAt, switches)
			if !ok {
				return false
			}
			next = d
			handoff = true
			return true
		}
		values, st, err := run(cur, seed, hook)
		if st != nil {
			segStats = append(segStats, st)
			globalBase += st.NumSupersteps()
		}
		res.Stats = MergeStats(segStats...)
		res.Segments = len(segStats)
		switch {
		case err == nil:
			return values, res, nil
		case errors.Is(err, runtime.ErrHandoff) && handoff:
			seed = values
			switches++
			res.Decisions = append(res.Decisions, next)
			if cfg.Trace != nil {
				cfg.Trace(next)
			}
			cur = next
		default:
			return nil, res, err
		}
	}
}

// fixedOwner adapts a snapshot-derived owner array to the engines'
// Partitioner hook, ignoring the live graph entirely.
func fixedOwner(owner []int32) runtime.Partitioner {
	return func(*graph.Graph, int) []int32 { return owner }
}

// --- auto PageRank ---

// PrepareAutoPageRank prepares k iterations of PageRank under the
// adaptive plan layer: the snapshot is pinned and sampled now, the
// returned closure runs the segment loop lock-free.
func PrepareAutoPageRank(g *graph.Graph, alpha float64, k int, cfg AutoConfig) func() (*PageRankResult, *AutoResult, error) {
	csr := g.Pin()
	workers := autoWorkers(cfg.Config)
	n := csr.N()
	gs := plan.Sample(csr, workers)
	caps := plan.Caps{Algorithm: "pagerank", HasCombiner: !cfg.NoCombiner, FixedK: true, Workers: workers}
	// done counts completed rank folds across segments; each segment
	// runs the remaining k-done. A pregel/block-centric segment's
	// superstep 0 only sends (its folds are supersteps minus one),
	// while gas folds at every iteration including the first.
	done := 0
	run := func(d plan.Decision, seed []float64, hook func(int, int) bool) ([]float64, *bsp.Stats, error) {
		remaining := k - done
		if remaining < 0 {
			remaining = 0
		}
		owner := d.Plan.Owner(csr, workers)
		switch d.Plan.Engine {
		case plan.EnginePregel:
			ecfg := engineCfg[float64](cfg.Config)
			ecfg.Workers = workers
			ecfg.Snapshot = csr
			ecfg.Replan = hook
			ecfg.Partition = fixedOwner(owner)
			ecfg.Mode = d.Plan.DirectionMode()
			ecfg.FCSThreshold = d.Plan.FCS
			if !cfg.NoCombiner {
				ecfg.Combiner = func(a, b float64) float64 { return a + b }
			}
			prog := &prProgram{n: n, alpha: alpha, k: remaining, seed: seed}
			res, err := pregel.NewEngine[prValue, float64](g, prog, ecfg).Run()
			var vals []float64
			var st *bsp.Stats
			if res != nil {
				vals = make([]float64, n)
				for v, val := range res.Values {
					vals[v] = val.rank
				}
				st = res.Stats
				if steps := st.NumSupersteps(); steps > 0 {
					done += steps - 1
				}
			}
			return vals, st, err
		case plan.EngineGAS:
			gcfg := gas.Config{
				Workers: workers, MaxIterations: cfg.MaxSupersteps,
				Partition: fixedOwner(owner), Snapshot: csr, Replan: hook,
				Mode: d.Plan.DirectionMode(), PullThreshold: cfg.PullThreshold,
				RunEnv: cfg.RunEnv, Pool: cfg.Pool,
			}
			prog := gas.PageRankFixedK(n, remaining, alpha, seed)
			res, err := gas.Prepare[float64, float64](g, prog, gcfg)()
			var vals []float64
			var st *bsp.Stats
			if res != nil {
				vals, st = res.Values, res.Stats
				done += st.NumSupersteps()
			}
			return vals, st, err
		case plan.EngineBlockcentric:
			bcfg := blockcentric.Config{
				Blocks: workers, MaxSupersteps: cfg.MaxSupersteps,
				Partition: fixedOwner(owner), Snapshot: csr, Replan: hook,
				// The canonical program's fold order matches pregel only
				// when every share crosses the inbox: pin push.
				Mode:   runtime.DirectionPush,
				RunEnv: cfg.RunEnv, Pool: cfg.Pool,
			}
			prog := blockcentric.PageRankProgramCanonical(n, remaining, alpha, seed)
			res, err := blockcentric.NewEngine[float64, float64](g, prog, bcfg).Run()
			var vals []float64
			var st *bsp.Stats
			if res != nil {
				vals, st = res.Values, res.Stats
				if steps := st.NumSupersteps(); steps > 0 {
					done += steps - 1
				}
			}
			return vals, st, err
		default:
			// Gauss-Seidel over live values has no notion of a global
			// iterate, so fixed-K PageRank cannot run asynchronously.
			return nil, nil, fmt.Errorf("plan: engine %q cannot run fixed-K pagerank", d.Plan.Engine)
		}
	}
	return func() (*PageRankResult, *AutoResult, error) {
		defer g.Unpin(csr)
		vals, ar, err := runAuto[float64](cfg, gs, caps, run)
		if err != nil {
			return nil, ar, err
		}
		return &PageRankResult{Ranks: vals, Stats: ar.Stats}, ar, nil
	}
}

// --- auto connected components ---

// PrepareAutoHashMinCC prepares connected components under the
// adaptive plan layer, pinning and sampling the snapshot now like
// PrepareAutoPageRank.
func PrepareAutoHashMinCC(g *graph.Graph, cfg AutoConfig) func() (*CCResult, *AutoResult, error) {
	csr := g.Pin()
	workers := autoWorkers(cfg.Config)
	gs := plan.Sample(csr, workers)
	caps := plan.Caps{Algorithm: "cc", HasCombiner: !cfg.NoCombiner, Workers: workers}
	run := func(d plan.Decision, seed []VertexID, hook func(int, int) bool) ([]VertexID, *bsp.Stats, error) {
		owner := d.Plan.Owner(csr, workers)
		switch d.Plan.Engine {
		case plan.EnginePregel:
			ecfg := engineCfg[VertexID](cfg.Config)
			ecfg.Workers = workers
			ecfg.Snapshot = csr
			ecfg.Replan = hook
			ecfg.Partition = fixedOwner(owner)
			ecfg.Mode = d.Plan.DirectionMode()
			ecfg.FCSThreshold = d.Plan.FCS
			if !cfg.NoCombiner {
				ecfg.Combiner = minLabel
			}
			prog := hashMinProgram[VertexID, inValue[VertexID]]{seed: seed}
			res, err := pregel.NewEngine[VertexID, VertexID](g, prog, ecfg).Run()
			var vals []VertexID
			var st *bsp.Stats
			if res != nil {
				vals, st = res.Values, res.Stats
			}
			return vals, st, err
		case plan.EngineGAS:
			gcfg := gas.Config{
				Workers: workers, MaxIterations: cfg.MaxSupersteps,
				Partition: fixedOwner(owner), Snapshot: csr, Replan: hook,
				Mode: d.Plan.DirectionMode(), PullThreshold: cfg.PullThreshold,
				RunEnv: cfg.RunEnv, Pool: cfg.Pool,
			}
			res, err := gas.Prepare[VertexID, VertexID](g, gas.CCProgramSeeded(seed), gcfg)()
			var vals []VertexID
			var st *bsp.Stats
			if res != nil {
				vals, st = res.Values, res.Stats
			}
			return vals, st, err
		case plan.EngineBlockcentric:
			bcfg := blockcentric.Config{
				Blocks: workers, MaxSupersteps: cfg.MaxSupersteps,
				Partition: fixedOwner(owner), Snapshot: csr, Replan: hook,
				Mode:   d.Plan.DirectionMode(),
				RunEnv: cfg.RunEnv, Pool: cfg.Pool,
			}
			res, err := blockcentric.NewEngine[VertexID, VertexID](g, blockcentric.CCProgramSeeded(seed), bcfg).Run()
			var vals []VertexID
			var st *bsp.Stats
			if res != nil {
				vals, st = res.Values, res.Stats
			}
			return vals, st, err
		case plan.EngineAsync:
			if cfg.Job != nil && workers != 1 {
				return nil, nil, fmt.Errorf("plan: async engine is sequential; job worker share is %d", workers)
			}
			acfg := async.Config{
				Snapshot: csr, Replan: hook,
				RunEnv: cfg.RunEnv, Pool: cfg.Pool,
			}
			res, err := async.Prepare[VertexID](g, async.CCProgramSeeded(seed), acfg)()
			var vals []VertexID
			var st *bsp.Stats
			if res != nil {
				vals, st = res.Values, res.Stats
			}
			return vals, st, err
		default:
			return nil, nil, fmt.Errorf("plan: unknown engine %q", d.Plan.Engine)
		}
	}
	return func() (*CCResult, *AutoResult, error) {
		defer g.Unpin(csr)
		vals, ar, err := runAuto[VertexID](cfg, gs, caps, run)
		if err != nil {
			return nil, ar, err
		}
		return &CCResult{Color: vals, Stats: ar.Stats}, ar, nil
	}
}

// --- auto single-source shortest paths ---

// PrepareAutoSSSP prepares single-source shortest paths under the
// adaptive plan layer, pinning and sampling the snapshot now like
// PrepareAutoPageRank.
func PrepareAutoSSSP(g *graph.Graph, src VertexID, cfg AutoConfig) func() (*SSSPResult, *AutoResult, error) {
	csr := g.Pin()
	workers := autoWorkers(cfg.Config)
	n := csr.N()
	gs := plan.Sample(csr, workers)
	caps := plan.Caps{Algorithm: "sssp", HasCombiner: !cfg.NoCombiner, Workers: workers}
	run := func(d plan.Decision, seed []float64, hook func(int, int) bool) ([]float64, *bsp.Stats, error) {
		owner := d.Plan.Owner(csr, workers)
		switch d.Plan.Engine {
		case plan.EnginePregel:
			ecfg := engineCfg[float64](cfg.Config)
			ecfg.Workers = workers
			ecfg.Snapshot = csr
			ecfg.Replan = hook
			ecfg.Partition = fixedOwner(owner)
			// SSSP sends a distinct distance per edge; the pull path
			// never applies (see PrepareSSSP).
			ecfg.Mode = runtime.DirectionPush
			ecfg.FCSThreshold = d.Plan.FCS
			if !cfg.NoCombiner {
				ecfg.Combiner = func(a, b float64) float64 {
					if a < b {
						return a
					}
					return b
				}
			}
			res, err := pregel.NewEngine[ssspValue, float64](g, &ssspProgram{src: src, seed: seed}, ecfg).Run()
			var vals []float64
			var st *bsp.Stats
			if res != nil {
				vals = make([]float64, n)
				for v, val := range res.Values {
					vals[v] = val.dist
				}
				st = res.Stats
			}
			return vals, st, err
		case plan.EngineGAS:
			gcfg := gas.Config{
				Workers: workers, MaxIterations: cfg.MaxSupersteps,
				Partition: fixedOwner(owner), Snapshot: csr, Replan: hook,
				Mode: d.Plan.DirectionMode(), PullThreshold: cfg.PullThreshold,
				RunEnv: cfg.RunEnv, Pool: cfg.Pool,
			}
			res, err := gas.Prepare[float64, float64](g, gas.SSSPProgramSeeded(src, seed), gcfg)()
			var vals []float64
			var st *bsp.Stats
			if res != nil {
				vals, st = res.Values, res.Stats
			}
			return vals, st, err
		case plan.EngineBlockcentric:
			bcfg := blockcentric.Config{
				Blocks: workers, MaxSupersteps: cfg.MaxSupersteps,
				Partition: fixedOwner(owner), Snapshot: csr, Replan: hook,
				Mode:   d.Plan.DirectionMode(),
				RunEnv: cfg.RunEnv, Pool: cfg.Pool,
			}
			res, err := blockcentric.NewEngine[float64, float64](g, blockcentric.SSSPProgramSeeded(src, seed), bcfg).Run()
			var vals []float64
			var st *bsp.Stats
			if res != nil {
				vals, st = res.Values, res.Stats
			}
			return vals, st, err
		case plan.EngineAsync:
			if cfg.Job != nil && workers != 1 {
				return nil, nil, fmt.Errorf("plan: async engine is sequential; job worker share is %d", workers)
			}
			// The async SSSP program uses a finite sentinel instead of
			// +Inf so its priority arithmetic stays ordered; normalize
			// at both boundaries so the other engines (and callers)
			// always see +Inf.
			if seed != nil {
				ns := make([]float64, len(seed))
				for i, v := range seed {
					if math.IsInf(v, 1) {
						v = async.DistInf
					}
					ns[i] = v
				}
				seed = ns
			}
			acfg := async.Config{
				Snapshot: csr, Replan: hook,
				RunEnv: cfg.RunEnv, Pool: cfg.Pool,
			}
			res, err := async.Prepare[float64](g, async.SSSPProgramSeeded(src, seed), acfg)()
			var vals []float64
			var st *bsp.Stats
			if res != nil {
				vals = make([]float64, len(res.Values))
				for i, v := range res.Values {
					if v == async.DistInf {
						v = math.Inf(1)
					}
					vals[i] = v
				}
				st = res.Stats
			}
			return vals, st, err
		default:
			return nil, nil, fmt.Errorf("plan: unknown engine %q", d.Plan.Engine)
		}
	}
	return func() (*SSSPResult, *AutoResult, error) {
		defer g.Unpin(csr)
		vals, ar, err := runAuto[float64](cfg, gs, caps, run)
		if err != nil {
			return nil, ar, err
		}
		return &SSSPResult{Dist: vals, Stats: ar.Stats}, ar, nil
	}
}
