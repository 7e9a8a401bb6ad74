package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"vcgraph/internal/graph"
	"vcgraph/internal/plan"
	rt "vcgraph/internal/runtime"
	"vcgraph/internal/service"
)

// analytics: one closed-loop client runs a fixed cyclic mix of large
// jobs on a skewed, low-diameter R-MAT graph and a high-diameter
// weighted grid. Engine compute, message delivery, CSR traversal, the
// planner and the checkpoint store do nearly all the work; the HTTP
// and admission layers almost none.
const (
	rmatScale        = 16
	rmatEdgeFactor   = 8
	gridSide         = 200
	analyticsWorkers = 2
	analyticsMaxJobs = 1
	analyticsK       = 10   // PageRank folds on the fixed-K engines
	analyticsEps     = 1e-7 // PageRank convergence bound on gas and async
	queriesPerJob    = 8    // point queries checked after each job
	analyticsTail    = 0.90
	// analyticsRetention keeps the job registry (each record holds a
	// result vector of up to 64k values) from growing across the run;
	// the one client queries each job before submitting the next.
	analyticsRetention = 64
)

var (
	analyticsInputs  = []string{"rmat", "grid"}
	analyticsAlgos   = []string{"pagerank", "sssp", "cc"}
	analyticsEngines = []string{"pregel", "gas", "async", "blockcentric", "auto"}
)

// aJob is one entry of the analytics mix.
type aJob struct {
	key    string // <engine>.<algo>.<input>[.<variant>]
	input  string
	spec   service.JobSpec
	matrix bool // an engine-matrix cell, timed by direct calls in the traced run
}

func analyticsSpec(in, algo, engine string) service.JobSpec {
	s := service.JobSpec{Graph: in, Algo: algo, Engine: engine, Workers: analyticsWorkers}
	if algo == "pagerank" {
		s.K, s.Eps = analyticsK, analyticsEps
	}
	return s
}

// analyticsMix is {pagerank, sssp, cc} × five engines × both inputs,
// k-core on pregel, one pregel job checkpointing every superstep with
// delta frames, and one pregel job under a seeded fault plan.
func analyticsMix(seed int64) []aJob {
	var mix []aJob
	for _, in := range analyticsInputs {
		for _, algo := range analyticsAlgos {
			for _, eng := range analyticsEngines {
				mix = append(mix, aJob{key: eng + "." + algo + "." + in, input: in, matrix: true, spec: analyticsSpec(in, algo, eng)})
			}
		}
	}
	mix = append(mix, aJob{key: "pregel.kcore.rmat", input: "rmat", matrix: true, spec: analyticsSpec("rmat", "kcore", "pregel")})
	ck := analyticsSpec("grid", "sssp", "pregel")
	ck.Checkpoint, ck.FullSnapshot = 1, 8
	mix = append(mix, aJob{key: "pregel.sssp.grid.ckpt", input: "grid", spec: ck})
	fa := analyticsSpec("rmat", "cc", "pregel")
	fa.Faults = 2*seed + 1 // odd, so never 0 (no faults)
	mix = append(mix, aJob{key: "pregel.cc.rmat.faults", input: "rmat", spec: fa})
	return mix
}

type analyticsInput struct {
	in     *input
	g      *graph.Graph // the benchmark's own copy, for oracles and direct calls
	or     *oracle
	body   []byte // POST /v1/graphs request
	sample []int  // candidates for point queries (SSSP: reachable only)
}

func analyticsInputsFor(seed int64) map[string]*analyticsInput {
	return map[string]*analyticsInput{
		"rmat": {in: rmat("rmat", rmatScale, rmatEdgeFactor, false, rngFor(seed, 1))},
		"grid": {in: grid("grid", gridSide, gridSide, rngFor(seed, 2))},
	}
}

func runAnalytics(r *run, tr *Tracer) error {
	inputs := analyticsInputsFor(r.seed)
	for _, name := range analyticsInputs {
		ai := inputs[name]
		ai.g = ai.in.build()
		ai.or = newOracle(ai.g, 0, []int{analyticsK}, name == "rmat")
		body, err := json.Marshal(ai.in.spec())
		if err != nil {
			return err
		}
		ai.body = body
		for v := 0; v < ai.in.n; v++ {
			if finite(ai.or.dist[v]) {
				ai.sample = append(ai.sample, v)
			}
		}
		r.note("input %s n=%d m=%d components=%d reachable=%d", name, ai.in.n, len(ai.in.edges), ai.or.components, ai.or.reachable)
	}
	mix := analyticsMix(r.seed)

	opts := service.Options{Workers: analyticsWorkers, MaxJobs: analyticsMaxJobs, JobRetention: analyticsRetention}
	build := func() (*server, error) {
		s := startServer(opts, tr)
		for _, name := range analyticsInputs {
			if err := s.c.register(inputs[name].body, 0); err != nil {
				s.close()
				return nil, err
			}
			// Warm-up: a one-fold PageRank pins the first CSR snapshot.
			warm := service.JobSpec{Graph: name, Algo: "pagerank", K: 1, Workers: analyticsWorkers}
			if _, _, err := runJob(s.c, warm, time.Now(), 0, 0); err != nil {
				s.close()
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
		return s, nil
	}
	srv, setup, err := timeSetups(setupRepeats, build, (*server).close)
	if err != nil {
		return err
	}
	defer srv.close()
	r.e2e["setup_s"] = setup

	rng := rngFor(r.seed, 3)
	if !r.trace {
		w := analyticsWindow(r, srv, nil, inputs, mix, r.seconds, rng)
		w.e2e(r, analyticsTail)
		return nil
	}
	base := analyticsWindow(r, srv, nil, inputs, mix, r.seconds/2, rng)
	w := analyticsWindow(r, srv, tr, inputs, mix, r.seconds/2, rng)
	w.e2e(r, analyticsTail)
	r.layer["bench.trace_overhead"] = w.p50()/base.p50() - 1
	spans := tr.Spans()
	r.layer["service.register_ms"] = meanSpan(spans, "service.register") * 1e3
	w.serviceLayer(r, spans)
	w.loadLayer(r)
	r.layer["runtime.supersteps"] = w.passSum(func(k *kindStats) float64 { return float64(k.supersteps) })
	r.layer["runtime.checkpoint_bytes"] = w.passSum(func(k *kindStats) float64 { return float64(k.checkpointBytes) })
	r.layer["runtime.rollbacks"] = w.passSum(func(k *kindStats) float64 { return float64(k.rollbacks) })
	r.layer["runtime.redone_supersteps"] = w.passSum(func(k *kindStats) float64 { return float64(k.redone) })
	// Jobs run one at a time here (max-jobs 1, one client), so the
	// process-wide allocation delta in each job summary is that job's.
	r.layer["runtime.alloc_mb"] = w.allocBytes / float64(w.ok) / (1 << 20)
	var autoJobs, switches float64
	for _, k := range w.kinds {
		if k.auto {
			autoJobs += float64(k.jobs)
			switches += float64(k.switches)
		}
	}
	if autoJobs > 0 {
		r.layer["plan.switches"] = switches / autoJobs
	}
	for _, k := range sortedKeys(w.kinds) {
		ks := w.kinds[k]
		r.note("kind %s jobs=%d supersteps=%d p50_ms=%.3f", k, ks.jobs, ks.supersteps, quantile(ks.lat, 0.5))
	}
	return analyticsDirect(r, tr, inputs, mix)
}

// kindStats aggregates one job kind of a window.
type kindStats struct {
	jobs            int
	lat             []float64
	supersteps      int // of the kind's first run
	checkpointBytes int64
	rollbacks       int
	redone          int
	auto            bool // the kind runs on engine auto
	switches        int
}

// window is what one measured window of jobs produced.
type window struct {
	lat           []float64 // ms, successful jobs
	ok            int
	elapsed       time.Duration
	polls, jobs   int
	allocBytes    float64 // summed total_alloc_delta (analytics only)
	queueMean     float64
	inflightMean  float64
	kinds         map[string]*kindStats
	firstPassKeys []string
	perKind       bool // latencies come from a fixed cyclic mix of job kinds
}

// p50 is the median job latency. For a fixed cyclic mix (perKind) it
// is the median over the job kinds of each kind's median latency, so
// it does not depend on how many passes fit in the window.
func (w *window) p50() float64 {
	if !w.perKind {
		return hdQuantile(w.lat, 0.5)
	}
	meds := make([]float64, 0, len(w.kinds))
	for _, k := range w.kinds {
		if len(k.lat) > 0 {
			meds = append(meds, quantile(k.lat, 0.5))
		}
	}
	return hdQuantile(meds, 0.5)
}

// e2e records the window's gated metrics and prints its latency tail,
// which is reported but not gated: on a two-CPU machine the tails
// moved by more than the largest allowed bound between runs.
func (w *window) e2e(r *run, tail float64) {
	q := tailQuantile(len(w.lat), tail)
	r.e2e["jobs_per_s"] = float64(w.ok) / w.elapsed.Seconds()
	r.e2e["job_p50_ms"] = w.p50()
	how := "all jobs"
	if w.perKind {
		how = fmt.Sprintf("medians of %d job kinds", len(w.kinds))
	}
	r.note("job_latency samples=%d p50_ms=%.3f (over %s) p%g_ms=%.3f window_s=%.3f",
		len(w.lat), w.p50(), how, 100*q, hdQuantile(w.lat, q), w.elapsed.Seconds())
}

func (w *window) serviceLayer(r *run, spans []Span) {
	r.layer["service.submit_us"] = meanSpan(spans, "service.submit") * 1e6
	r.layer["service.status_us"] = meanSpan(spans, "service.status") * 1e6
	r.layer["service.query_us"] = meanSpan(spans, "service.query") * 1e6
	if w.jobs > 0 {
		r.layer["service.polls_per_job"] = float64(w.polls) / float64(w.jobs)
	}
	if w.polls > 0 {
		r.layer["service.poll_useful_frac"] = float64(w.jobs) / float64(w.polls)
	}
}

func (w *window) loadLayer(r *run) {
	rate := float64(w.jobs) / w.elapsed.Seconds()
	r.layer["runtime.queue_len_mean"] = w.queueMean
	r.layer["runtime.inflight_mean"] = w.inflightMean
	r.layer["runtime.admission_wait_ms"] = littleWait(w.queueMean, rate)
}

// passSum sums f over the job kinds of one pass of the mix, so the
// result does not depend on how many passes fit in the window.
func (w *window) passSum(f func(*kindStats) float64) float64 {
	var s float64
	for _, k := range w.firstPassKeys {
		s += f(w.kinds[k])
	}
	return s
}

func analyticsWindow(r *run, srv *server, tr *Tracer, inputs map[string]*analyticsInput, mix []aJob, dur time.Duration, rng *rand.Rand) *window {
	c := *srv.c
	c.tr = tr
	w := &window{kinds: map[string]*kindStats{}, perKind: true}
	stop := startLoadSampler(srv.srv.Scheduler(), tr != nil)
	start := time.Now()
	var req int64
	for pass := 0; pass == 0 || time.Since(start) < dur; pass++ {
		passStart := time.Now()
		for _, j := range mix {
			req++
			ks := w.kinds[j.key]
			if ks == nil {
				ks = &kindStats{auto: j.spec.Engine == "auto"}
				w.kinds[j.key] = ks
				w.firstPassKeys = append(w.firstPassKeys, j.key)
			}
			root := tr.Begin("bench.job", 0, req)
			t0 := time.Now()
			st, polls, err := runJob(&c, j.spec, t0, root, req)
			lat := time.Since(t0)
			w.polls += polls
			w.jobs++
			if err == nil {
				err = checkJob(&c, st.id, st.jobStatus, j, inputs[j.input], rng, root, req)
			}
			tr.End(root)
			if !r.op(err) {
				continue
			}
			w.ok++
			ms := lat.Seconds() * 1000
			w.lat = append(w.lat, ms)
			ks.lat = append(ks.lat, ms)
			ks.jobs++
			sum := st.Summary
			w.allocBytes += float64(sum.AllocDelta)
			if ks.jobs == 1 {
				ks.supersteps = sum.Supersteps
				ks.checkpointBytes = sum.CheckpointBytesFull + sum.CheckpointBytesDelta
				ks.rollbacks = sum.Rollbacks
				ks.redone = sum.RedoneUnits
			}
			if st.Plan != nil {
				ks.switches += len(st.Plan.Decisions) - 1
			}
		}
		r.note("analytics pass=%d pass_s=%.3f", pass, time.Since(passStart).Seconds())
	}
	w.elapsed = time.Since(start)
	w.queueMean, w.inflightMean = stop()
	return w
}

type submitted struct {
	id int64
	*jobStatus
}

// runJob submits spec and polls it to a terminal state.
func runJob(c *client, spec service.JobSpec, t0 time.Time, parent, req int64) (submitted, int, error) {
	id, err := c.submit(spec, parent, req)
	if err != nil {
		return submitted{}, 0, err
	}
	st, polls, err := c.wait(id, t0, parent, req)
	if err != nil {
		return submitted{}, polls, err
	}
	if st.State != "succeeded" {
		return submitted{}, polls, fmt.Errorf("job %d (%s/%s) %s: %s", id, spec.Algo, spec.Engine, st.State, st.Error)
	}
	return submitted{id: id, jobStatus: st}, polls, nil
}

// checkJob checks a finished job's verdict and point queries on
// sampled vertices against the oracle.
func checkJob(c *client, id int64, st *jobStatus, j aJob, ai *analyticsInput, rng *rand.Rand, parent, req int64) error {
	spec := j.spec
	if err := ai.or.checkVerdict(spec.Algo, spec.Engine, spec.K, spec.Eps, st.Verdict); err != nil {
		return fmt.Errorf("%s: %w", j.key, err)
	}
	for i := 0; i < queriesPerJob; i++ {
		v := rng.Intn(ai.in.n)
		if spec.Algo == "sssp" {
			// Unreachable distances have no JSON form; the verdict
			// already checks how many vertices are reachable.
			v = ai.sample[rng.Intn(len(ai.sample))]
		}
		got, err := c.query(id, v, parent, req)
		if err != nil {
			return fmt.Errorf("%s: %w", j.key, err)
		}
		if err := ai.or.checkValue(spec.Algo, spec.Engine, spec.K, spec.Eps, v, got); err != nil {
			return fmt.Errorf("%s: %w", j.key, err)
		}
	}
	return nil
}

// analyticsDirect times each engine-matrix cell through the public
// prepare call and the run function it returns, on the benchmark's own
// copy of the input, and checks the whole result vector.
func analyticsDirect(r *run, tr *Tracer, inputs map[string]*analyticsInput, mix []aJob) error {
	pool := rt.NewPool(analyticsWorkers)
	defer pool.Close()
	var runNS, units, steps float64
	best := map[string]float64{} // algo.input -> fastest fixed engine run_ms
	autoRun := map[string]float64{}
	req := int64(1 << 40)
	for _, name := range analyticsInputs {
		ai := inputs[name]
		req++
		root := tr.Begin("bench.input", 0, req)
		sp := tr.Begin("graph.build", root, req)
		t0 := time.Now()
		g := ai.in.build()
		csr := g.Pin()
		r.layer["graph.build_ms"] += time.Since(t0).Seconds() * 1e3
		tr.End(sp)
		r.layer["graph.edge_bytes"] += float64(csr.EdgeBytes())
		sp = tr.Begin("plan.sample", root, req)
		t0 = time.Now()
		plan.Sample(csr, analyticsWorkers)
		r.layer["plan.sample_ms"] += time.Since(t0).Seconds() * 1e3 / float64(len(analyticsInputs))
		tr.End(sp)
		g.Unpin(csr)
		tr.End(root)
	}
	for _, j := range mix {
		if !j.matrix {
			continue
		}
		ai := inputs[j.input]
		spec := j.spec
		req++
		root := tr.Begin("bench.direct", 0, req)
		sp := tr.Begin(spec.Engine+".prepare", root, req)
		t0 := time.Now()
		run, err := prepareDirect(ai.g, spec.Engine, spec.Algo, 0, spec.K, spec.Eps, pool)
		prep := time.Since(t0)
		tr.End(sp)
		if !r.op(err) {
			tr.End(root)
			continue
		}
		sp = tr.Begin(spec.Engine+".run", root, req)
		t0 = time.Now()
		out, err := run()
		dur := time.Since(t0)
		tr.End(sp)
		tr.End(root)
		if err == nil {
			err = ai.or.checkVector(spec.Algo, spec.Engine, spec.K, spec.Eps, out.vals)
		}
		if !r.op(err) {
			continue
		}
		runMS := dur.Seconds() * 1e3
		r.layer[j.key+".prepare_ms"] = prep.Seconds() * 1e3
		r.layer[j.key+".run_ms"] = runMS
		runNS += float64(dur.Nanoseconds())
		units += out.stats.MeasuredTime
		steps += float64(out.stats.NumSupersteps())
		r.note("direct %s prepare_ms=%.3f run_ms=%.3f supersteps=%d messages=%d model_units=%.0f ns_per_unit=%.3f",
			j.key, prep.Seconds()*1e3, runMS, out.stats.NumSupersteps(), out.stats.TotalMessages,
			out.stats.MeasuredTime, float64(dur.Nanoseconds())/out.stats.MeasuredTime)
		cell := spec.Algo + "." + j.input
		switch {
		case spec.Engine == "auto":
			autoRun[cell] = runMS
		case spec.Algo != "kcore":
			if b, ok := best[cell]; !ok || runMS < b {
				best[cell] = runMS
			}
		}
	}
	for cell, a := range autoRun {
		if b := best[cell]; b > 0 {
			r.layer["plan.regret."+cell] = a / b
		}
	}
	if steps > 0 {
		r.layer["runtime.superstep_us"] = runNS / steps / 1e3
	}
	if units > 0 {
		r.layer["bsp.ns_per_unit"] = runNS / units
	}
	return nil
}

// meanSpan is the mean duration in seconds of the spans called name.
func meanSpan(spans []Span, name string) float64 {
	var total int64
	n := 0
	for _, s := range spans {
		if s.Name == name {
			total += s.End - s.Start
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n) / 1e9
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// startLoadSampler samples the scheduler's queue length and in-flight
// count every millisecond while on is set; the returned stop function
// ends the sampling goroutine, waits for it, and returns both means.
func startLoadSampler(s *rt.Scheduler, on bool) func() (queue, inflight float64) {
	if !on {
		return func() (float64, float64) { return 0, 0 }
	}
	quit := make(chan struct{})
	done := make(chan [2]float64)
	go func() {
		var q, f, n float64
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				if n == 0 {
					n = 1
				}
				done <- [2]float64{q / n, f / n}
				return
			case <-tick.C:
				q += float64(s.QueueLen())
				f += float64(s.InFlight())
				n++
			}
		}
	}()
	return func() (float64, float64) {
		close(quit)
		m := <-done
		return m[0], m[1]
	}
}
