package service

import (
	"fmt"
	"sort"
	"strings"

	"vcgraph/internal/async"
	"vcgraph/internal/blockcentric"
	"vcgraph/internal/bsp"
	"vcgraph/internal/gas"
	"vcgraph/internal/graph"
	"vcgraph/internal/plan"
	rt "vcgraph/internal/runtime"
	"vcgraph/internal/vc"
)

// runResult is the normalized output of any algorithm × engine pair:
// one float64 per vertex (ranks, distances, component labels, or
// coreness — labels and coreness are integers, exact in a float64),
// the job-level stats summary, and a one-line human verdict. epoch is
// the graph's mutation epoch at prepare time, so a later incremental
// job can resume from this result; inc carries the richer incremental
// state when the job ran on the inc engine.
type runResult struct {
	values  []float64
	summary bsp.Summary
	verdict string
	epoch   int64
	inc     *incStateBox
	// auto carries the plan layer's decision log and sampled graph
	// statistics when the job ran on the "auto" engine.
	auto *vc.AutoResult
}

// incStateBox holds whichever incremental state a job produced, or the
// warm-start state an incremental job resumes from; the zero value
// means a cold start.
type incStateBox struct {
	cc   *vc.IncCCState
	sssp *vc.IncSSSPState
	pr   *vc.IncPRState
}

// cold reports whether the run recomputed from scratch (no usable
// prior state — first run, mismatched resume, or truncated log).
func (b *incStateBox) cold() bool {
	switch {
	case b.cc != nil:
		return b.cc.Cold
	case b.sssp != nil:
		return b.sssp.Cold
	case b.pr != nil:
		return b.pr.Cold
	}
	return true
}

// priorFromResult reconstructs warm-start state from a prior job's
// result. An incremental prior hands over its state directly; a plain
// prior seeds CC/SSSP from its converged values and prepare-time epoch
// (their fixpoints are engine-independent — SSSP modulo the
// unreachable sentinel, normalized here).
func priorFromResult(spec JobSpec, res *runResult) incStateBox {
	if res.inc != nil {
		return *res.inc
	}
	switch spec.Algo {
	case "cc":
		labels := make([]graph.VertexID, len(res.values))
		for i, v := range res.values {
			labels[i] = graph.VertexID(v)
		}
		return incStateBox{cc: &vc.IncCCState{Epoch: res.epoch, Labels: labels}}
	case "sssp":
		dist := make([]float64, len(res.values))
		for i, d := range res.values {
			if d >= 1e300 {
				d = vc.Unreachable
			}
			dist[i] = d
		}
		return incStateBox{sssp: &vc.IncSSSPState{Epoch: res.epoch, Src: graph.VertexID(spec.Src), Dist: dist}}
	}
	return incStateBox{}
}

// servingKey names one cell of the serving matrix.
type servingKey struct{ algo, engine string }

// servingEntry is one (algorithm, engine) pair the daemon serves.
// prepare is the prepare phase of a job: it is called with the graph's
// read lock held, constructs the engine (pinning a CSR snapshot and
// performing every read of the mutable adjacency), and returns a
// closure that runs lock-free against the snapshot. sequential marks
// the engines whose driver runs one worker — the asynchronous engine
// and the incremental worklist drain — so the job's lease share must
// be 1.
type servingEntry struct {
	prepare    func(g *graph.Graph, p *jobPrep) func() (*runResult, error)
	sequential bool
}

// jobPrep is what a serving entry prepares a job from: the defaulted,
// validated spec, the run environment built once from it, the parsed
// direction mode, the resolved warm-start state (inc only), and the
// server's plan-decision observer (auto only).
type jobPrep struct {
	spec      JobSpec
	env       rt.RunEnv
	mode      rt.DirectionMode
	prior     incStateBox
	planTrace func(jobID int64, d plan.Decision)
}

// autoConfig is the plan layer's config. spec.Mode and spec.FCS are
// not passed: under "auto" the planner owns both knobs.
func (p *jobPrep) autoConfig() vc.AutoConfig {
	cfg := vc.AutoConfig{Config: vc.Config{Workers: p.spec.Workers, RunEnv: p.env}}
	if trace := p.planTrace; trace != nil {
		id := p.env.Job.ID()
		cfg.Trace = func(d plan.Decision) { trace(id, d) }
	}
	return cfg
}

// serving is the serving matrix: every algorithm runs on pregel;
// pagerank/sssp/cc also run on gas, async, blockcentric, the
// incremental (evolving-graph) engine, and "auto" — the adaptive plan
// layer, which samples the graph, picks an engine/partition/mode, and
// may hand off between engines at superstep barriers mid-run, with its
// decision log and graph statistics landing in runResult.auto. The inc
// entries pin a delta view and perform the seed analysis under the
// read lock, and carry their incremental state in runResult.inc so
// the next resume can chain from the job.
var serving = map[servingKey]servingEntry{
	{"pagerank", "pregel"}: {prepare: func(g *graph.Graph, p *jobPrep) func() (*runResult, error) {
		run := vc.PreparePageRank(g, p.spec.Alpha, p.spec.K, vc.Config{Mode: p.mode, FCS: p.spec.FCS, RunEnv: p.env})
		return func() (*runResult, error) {
			res, err := run()
			if err != nil {
				return nil, err
			}
			return result(res.Ranks, res.Stats), nil
		}
	}},
	{"sssp", "pregel"}: {prepare: func(g *graph.Graph, p *jobPrep) func() (*runResult, error) {
		run := vc.PrepareSSSP(g, graph.VertexID(p.spec.Src), vc.Config{Mode: p.mode, FCS: p.spec.FCS, RunEnv: p.env})
		return func() (*runResult, error) {
			res, err := run()
			if err != nil {
				return nil, err
			}
			return result(res.Dist, res.Stats), nil
		}
	}},
	{"cc", "pregel"}: {prepare: func(g *graph.Graph, p *jobPrep) func() (*runResult, error) {
		run := vc.PrepareHashMinCC(g, vc.Config{Mode: p.mode, FCS: p.spec.FCS, RunEnv: p.env})
		return func() (*runResult, error) {
			res, err := run()
			if err != nil {
				return nil, err
			}
			return result(idsToFloats(res.Color), res.Stats), nil
		}
	}},
	{"kcore", "pregel"}: {prepare: func(g *graph.Graph, p *jobPrep) func() (*runResult, error) {
		run := vc.PrepareKCore(g, vc.Config{Mode: p.mode, FCS: p.spec.FCS, RunEnv: p.env})
		return func() (*runResult, error) {
			res, err := run()
			if err != nil {
				return nil, err
			}
			vals := make([]float64, len(res.Core))
			for v, c := range res.Core {
				vals[v] = float64(c)
			}
			return result(vals, res.Stats), nil
		}
	}},

	{"pagerank", "gas"}: {prepare: func(g *graph.Graph, p *jobPrep) func() (*runResult, error) {
		run := gas.PreparePageRank(g, p.spec.Alpha, p.spec.Eps, gas.Config{Mode: p.mode, RunEnv: p.env})
		return func() (*runResult, error) {
			ranks, res, err := run()
			if err != nil {
				return nil, err
			}
			return result(ranks, res.Stats), nil
		}
	}},
	{"sssp", "gas"}: {prepare: func(g *graph.Graph, p *jobPrep) func() (*runResult, error) {
		run := gas.PrepareSSSP(g, graph.VertexID(p.spec.Src), gas.Config{Mode: p.mode, RunEnv: p.env})
		return func() (*runResult, error) {
			dist, res, err := run()
			if err != nil {
				return nil, err
			}
			return result(dist, res.Stats), nil
		}
	}},
	{"cc", "gas"}: {prepare: func(g *graph.Graph, p *jobPrep) func() (*runResult, error) {
		run := gas.PrepareConnectedComponents(g, gas.Config{Mode: p.mode, RunEnv: p.env})
		return func() (*runResult, error) {
			labels, res, err := run()
			if err != nil {
				return nil, err
			}
			return result(idsToFloats(labels), res.Stats), nil
		}
	}},

	{"pagerank", "async"}: {sequential: true, prepare: func(g *graph.Graph, p *jobPrep) func() (*runResult, error) {
		run := async.PreparePageRank(g, p.spec.Alpha, p.spec.Eps, async.Config{RunEnv: p.env})
		return func() (*runResult, error) {
			ranks, res, err := run()
			if err != nil {
				return nil, err
			}
			return result(ranks, res.Stats), nil
		}
	}},
	{"sssp", "async"}: {sequential: true, prepare: func(g *graph.Graph, p *jobPrep) func() (*runResult, error) {
		run := async.PrepareSSSP(g, graph.VertexID(p.spec.Src), async.Config{RunEnv: p.env})
		return func() (*runResult, error) {
			dist, res, err := run()
			if err != nil {
				return nil, err
			}
			return result(dist, res.Stats), nil
		}
	}},
	{"cc", "async"}: {sequential: true, prepare: func(g *graph.Graph, p *jobPrep) func() (*runResult, error) {
		run := async.PrepareConnectedComponents(g, async.Config{RunEnv: p.env})
		return func() (*runResult, error) {
			labels, res, err := run()
			if err != nil {
				return nil, err
			}
			return result(idsToFloats(labels), res.Stats), nil
		}
	}},

	{"pagerank", "blockcentric"}: {prepare: func(g *graph.Graph, p *jobPrep) func() (*runResult, error) {
		run := blockcentric.PreparePageRank(g, p.spec.Alpha, p.spec.K, blockcentric.Config{RunEnv: p.env})
		return func() (*runResult, error) {
			res, err := run()
			if err != nil {
				return nil, err
			}
			return result(res.Ranks, res.Stats), nil
		}
	}},
	{"sssp", "blockcentric"}: {prepare: func(g *graph.Graph, p *jobPrep) func() (*runResult, error) {
		run := blockcentric.PrepareSSSP(g, graph.VertexID(p.spec.Src), blockcentric.Config{RunEnv: p.env})
		return func() (*runResult, error) {
			res, err := run()
			if err != nil {
				return nil, err
			}
			return result(res.Dist, res.Stats), nil
		}
	}},
	{"cc", "blockcentric"}: {prepare: func(g *graph.Graph, p *jobPrep) func() (*runResult, error) {
		run := blockcentric.PrepareConnectedComponents(g, blockcentric.Config{RunEnv: p.env})
		return func() (*runResult, error) {
			res, err := run()
			if err != nil {
				return nil, err
			}
			return result(idsToFloats(res.Color), res.Stats), nil
		}
	}},

	{"pagerank", "inc"}: {sequential: true, prepare: func(g *graph.Graph, p *jobPrep) func() (*runResult, error) {
		run := vc.PrepareIncrementalPageRank(g, p.spec.Alpha, p.spec.K, p.prior.pr, vc.IncConfig{RunEnv: p.env})
		return func() (*runResult, error) {
			st, stats, err := run()
			if err != nil {
				return nil, err
			}
			res := result(st.Ranks(), stats)
			res.inc = &incStateBox{pr: st}
			return res, nil
		}
	}},
	{"sssp", "inc"}: {sequential: true, prepare: func(g *graph.Graph, p *jobPrep) func() (*runResult, error) {
		run := vc.PrepareIncrementalSSSP(g, graph.VertexID(p.spec.Src), p.prior.sssp, vc.IncConfig{RunEnv: p.env})
		return func() (*runResult, error) {
			st, stats, err := run()
			if err != nil {
				return nil, err
			}
			res := result(st.Dist, stats)
			res.inc = &incStateBox{sssp: st}
			return res, nil
		}
	}},
	{"cc", "inc"}: {sequential: true, prepare: func(g *graph.Graph, p *jobPrep) func() (*runResult, error) {
		run := vc.PrepareIncrementalCC(g, p.prior.cc, vc.IncConfig{RunEnv: p.env})
		return func() (*runResult, error) {
			st, stats, err := run()
			if err != nil {
				return nil, err
			}
			res := result(idsToFloats(st.Labels), stats)
			res.inc = &incStateBox{cc: st}
			return res, nil
		}
	}},

	{"pagerank", "auto"}: {prepare: func(g *graph.Graph, p *jobPrep) func() (*runResult, error) {
		run := vc.PrepareAutoPageRank(g, p.spec.Alpha, p.spec.K, p.autoConfig())
		return func() (*runResult, error) {
			res, ar, err := run()
			if err != nil {
				return nil, err
			}
			out := result(res.Ranks, ar.Stats)
			out.auto = ar
			return out, nil
		}
	}},
	{"sssp", "auto"}: {prepare: func(g *graph.Graph, p *jobPrep) func() (*runResult, error) {
		run := vc.PrepareAutoSSSP(g, graph.VertexID(p.spec.Src), p.autoConfig())
		return func() (*runResult, error) {
			res, ar, err := run()
			if err != nil {
				return nil, err
			}
			out := result(res.Dist, ar.Stats)
			out.auto = ar
			return out, nil
		}
	}},
	{"cc", "auto"}: {prepare: func(g *graph.Graph, p *jobPrep) func() (*runResult, error) {
		run := vc.PrepareAutoHashMinCC(g, p.autoConfig())
		return func() (*runResult, error) {
			res, ar, err := run()
			if err != nil {
				return nil, err
			}
			out := result(idsToFloats(res.Color), ar.Stats)
			out.auto = ar
			return out, nil
		}
	}},
}

// validEngines enumerates the engines an algorithm runs on, sorted,
// for error messages. Derived from the serving table so the text can
// never drift from it.
func validEngines(algo string) []string {
	var names []string
	for k := range serving {
		if k.algo == algo {
			names = append(names, k.engine)
		}
	}
	sort.Strings(names)
	return names
}

// withDefaults folds the server-level checkpoint cadence defaults
// (Options) into unset spec fields, then the per-field fallbacks.
func (s *Server) withDefaults(spec JobSpec) JobSpec {
	if spec.Checkpoint == 0 {
		spec.Checkpoint = s.opts.DefaultCheckpointEvery
	}
	if spec.FullSnapshot == 0 {
		spec.FullSnapshot = s.opts.DefaultFullSnapshotEvery
	}
	if spec.Incremental && spec.Engine == "" {
		spec.Engine = "inc"
	}
	if spec.Engine == "inc" {
		spec.Incremental = true
	}
	if spec.Engine == "" {
		spec.Engine = "pregel"
	}
	if spec.Alpha == 0 {
		spec.Alpha = 0.85
	}
	if spec.K == 0 {
		spec.K = 30
	}
	if spec.Eps == 0 {
		spec.Eps = 1e-9
	}
	if spec.Faults != 0 && spec.Checkpoint == 0 {
		spec.Checkpoint = 2
	}
	return spec
}

// MaxJobWorkers caps a job's workers field. Mailbox lanes grow as the
// square of the worker count, so one spec with thousands of workers can
// exhaust the daemon's memory even on a tiny graph; 1024 workers on a
// 60-vertex graph costs tens of megabytes.
const MaxJobWorkers = 1024

// MaxIncHistoryBytes caps the rank history an incremental PageRank job
// keeps: one float64 per vertex per iteration, 8·n·(k+1) bytes.
const MaxIncHistoryBytes = 1 << 30

// validateSpec checks a defaulted spec against the serving table and
// the graph's vertex count n, returning the pair's entry and the
// parsed direction mode.
func validateSpec(spec JobSpec, n int) (servingEntry, rt.DirectionMode, error) {
	entry, ok := serving[servingKey{spec.Algo, spec.Engine}]
	if !ok {
		valid := validEngines(spec.Algo)
		if len(valid) == 0 {
			return entry, 0, fmt.Errorf("service: unknown algorithm %q", spec.Algo)
		}
		return entry, 0, fmt.Errorf("service: algorithm %q does not run on engine %q (valid engines: %s)",
			spec.Algo, spec.Engine, strings.Join(valid, ", "))
	}
	if spec.Resume != 0 && spec.Engine != "inc" {
		return entry, 0, fmt.Errorf("service: resume requires the inc engine, got %q", spec.Engine)
	}
	if spec.Algo == "sssp" && (spec.Src < 0 || spec.Src >= n) {
		return entry, 0, fmt.Errorf("service: sssp source %d outside [0, %d)", spec.Src, n)
	}
	if spec.Workers < 0 || spec.Workers > MaxJobWorkers {
		return entry, 0, fmt.Errorf("service: workers %d outside [0, %d]", spec.Workers, MaxJobWorkers)
	}
	if spec.Algo == "pagerank" {
		if spec.K < 0 {
			return entry, 0, fmt.Errorf("service: pagerank k %d is negative", spec.K)
		}
		if !(spec.Alpha >= 0 && spec.Alpha <= 1) {
			return entry, 0, fmt.Errorf("service: pagerank alpha %v outside [0, 1]", spec.Alpha)
		}
		if !(spec.Eps >= 0) {
			return entry, 0, fmt.Errorf("service: pagerank eps %v is negative", spec.Eps)
		}
		if spec.Engine == "inc" && n > 0 && spec.K >= MaxIncHistoryBytes/(8*n) {
			return entry, 0, fmt.Errorf("service: incremental pagerank history for k %d on %d vertices exceeds %d bytes",
				spec.K, n, MaxIncHistoryBytes)
		}
	}
	mode, err := rt.ParseDirectionMode(spec.Mode)
	if err != nil {
		return entry, 0, fmt.Errorf("service: %w", err)
	}
	return entry, mode, nil
}

// runEnv is the job's run environment, built once from its spec; the
// scheduler fills in Job when the job is admitted.
func runEnv(spec JobSpec) rt.RunEnv {
	env := rt.RunEnv{CheckpointEvery: spec.Checkpoint, FullSnapshotEvery: spec.FullSnapshot}
	if spec.Faults != 0 {
		env.Faults = rt.NewFaultPlan(spec.Faults)
	}
	return env
}

func result(values []float64, stats *bsp.Stats) *runResult {
	return &runResult{values: values, summary: stats.Summarize()}
}

func idsToFloats(ids []graph.VertexID) []float64 {
	out := make([]float64, len(ids))
	for i, id := range ids {
		out[i] = float64(id)
	}
	return out
}

// verdict is the one-line human summary of an algorithm's values:
// labels and coreness are integers, exact in a float64.
func verdict(spec JobSpec, values []float64) string {
	switch spec.Algo {
	case "pagerank":
		best, bestV := -1.0, 0
		for v, r := range values {
			if r > best {
				best, bestV = r, v
			}
		}
		return fmt.Sprintf("top vertex %d with rank %.6f", bestV, best)
	case "sssp":
		reached := 0
		for _, d := range values {
			if d < 1e300 {
				reached++
			}
		}
		return fmt.Sprintf("%d vertices reachable from %d", reached, spec.Src)
	case "cc":
		set := make(map[float64]bool, 16)
		for _, l := range values {
			set[l] = true
		}
		return fmt.Sprintf("%d components", len(set))
	case "kcore":
		degeneracy := 0.0
		for _, c := range values {
			if c > degeneracy {
				degeneracy = c
			}
		}
		return fmt.Sprintf("degeneracy %d", int(degeneracy))
	}
	return ""
}
