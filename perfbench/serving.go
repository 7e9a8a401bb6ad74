package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"vcgraph/internal/graph"
	"vcgraph/internal/seq"
	"vcgraph/internal/service"
	"vcgraph/internal/vc"
)

// serving: short jobs on two small graphs from one closed-loop reader,
// with mutation batches and incremental repairs on a larger evolving
// graph beside them from one writer. The HTTP layer, the registries,
// scheduler admission, per-job set-up, the mutation write lock, the
// delta-CSR overlay and incremental repair dominate; engine compute is
// small.
//
// The reader is a closed loop, not an open one. On a 2-vCPU Xeon VM
// with bursts of host CPU steal, a Poisson stream of 200 jobs/s slowed
// from a 3.4 ms to an 8.4 ms median (queueing amplifies any slowdown),
// and the median moved by 79% across ten runs; a closed loop slows only
// in proportion to the CPU lost.
const (
	servingWorkers   = 2
	servingMaxJobs   = 4 // vcd's default
	servingRetention = 1024
	servingMutRate   = 5.0 // mutation batches per second, Poisson
	mutBatchSize     = 16
	mutInsertFrac    = 0.55
	servingK         = 5
	servingEps       = 1e-6
	smallScale       = 11 // small R-MAT: 2048 vertices
	smallPLN         = 2000
	evolvingN        = 30000
	evolvingK        = 3
	servingTail      = 0.90 // printed with p99, not gated (see spec.json)
	incQueries       = 4    // sampled vertices checked per repair job
	evolvingGraph    = "evolving"
)

var (
	servingSmall   = []string{"small-rmat", "small-plaw"}
	servingAlgos   = []string{"pagerank", "cc", "sssp"}
	servingEngines = []string{"pregel", "gas", "async", "blockcentric", "auto"}
)

type servingInputs struct {
	small    map[string]*analyticsInput
	evolving *input
	bodies   [][]byte
	mutAt    []time.Duration // scheduled send of each mutation batch
	batches  [][]service.MutationSpec
}

// servingInputsFor makes the graphs, the mutation schedule and the
// mutation batches from the seed. The reader's job sequence comes from
// shortJobs, also seeded.
func servingInputsFor(seed int64, dur time.Duration) *servingInputs {
	si := &servingInputs{small: map[string]*analyticsInput{}}
	si.small["small-rmat"] = &analyticsInput{in: rmat("small-rmat", smallScale, 4, true, rngFor(seed, 11))}
	si.small["small-plaw"] = &analyticsInput{in: powerLaw("small-plaw", smallPLN, 3, true, rngFor(seed, 12))}
	si.evolving = powerLaw(evolvingGraph, evolvingN, evolvingK, true, rngFor(seed, 13))
	mut := newMutator(si.evolving, rngFor(seed, 16))
	si.mutAt = poisson(servingMutRate, dur, rngFor(seed, 17))
	for range si.mutAt {
		si.batches = append(si.batches, mut.batch(mutBatchSize, mutInsertFrac))
	}
	return si
}

// shortJob is one reader request: a job and the vertex to query after.
type shortJob struct {
	spec   service.JobSpec
	vertex int
}

// shortJobs returns the seeded sequence of reader requests: a uniform
// pick of graph, algorithm and engine per job.
func shortJobs(seed int64) func() shortJob {
	pick := rngFor(seed, 14)
	return func() shortJob {
		spec := service.JobSpec{
			Graph:  servingSmall[pick.Intn(len(servingSmall))],
			Algo:   servingAlgos[pick.Intn(len(servingAlgos))],
			Engine: servingEngines[pick.Intn(len(servingEngines))],
		}
		if spec.Algo == "pagerank" {
			spec.K, spec.Eps = servingK, servingEps
		}
		return shortJob{spec: spec, vertex: pick.Int()}
	}
}

func runServing(r *run, tr *Tracer) error {
	si := servingInputsFor(r.seed, r.seconds)
	for _, name := range servingSmall {
		ai := si.small[name]
		ai.g = ai.in.build()
		ai.or = newOracle(ai.g, 0, []int{servingK}, false)
		for v := 0; v < ai.in.n; v++ {
			if finite(ai.or.dist[v]) {
				ai.sample = append(ai.sample, v)
			}
		}
	}
	for _, in := range []*input{si.small["small-rmat"].in, si.small["small-plaw"].in, si.evolving} {
		body, err := json.Marshal(in.spec())
		if err != nil {
			return err
		}
		si.bodies = append(si.bodies, body)
		r.note("input %s n=%d m=%d", in.name, in.n, len(in.edges))
	}
	r.note("schedule batches=%d mut_rate=%g", len(si.batches), servingMutRate)

	opts := service.Options{Workers: servingWorkers, MaxJobs: servingMaxJobs, JobRetention: servingRetention}
	var chain incChain
	build := func() (*server, error) {
		s := startServer(opts, tr)
		c, err := servingSetup(s, si)
		if err != nil {
			s.close()
			return nil, err
		}
		chain = c
		return s, nil
	}
	srv, setup, err := timeSetups(setupRepeats, build, (*server).close)
	if err != nil {
		return err
	}
	defer srv.close()
	r.e2e["setup_s"] = setup

	next := shortJobs(r.seed)
	jitter := rngFor(r.seed, 19)
	var res *servingWindow
	if !r.trace {
		res = runServingWindow(r, srv, nil, si, 0, r.seconds, &chain, next, jitter)
	} else {
		half := r.seconds / 2
		base := runServingWindow(r, srv, nil, si, 0, half, &chain, next, jitter)
		res = runServingWindow(r, srv, tr, si, half, r.seconds, &chain, next, jitter)
		res.incs = append(base.incs, res.incs...)
		res.acks = append(base.acks, res.acks...)
		r.layer["bench.trace_overhead"] = res.p50()/base.p50() - 1
	}
	res.e2e(r, servingTail)
	res.report(r)
	if err := servingReplay(r, tr, si, res); err != nil {
		return err
	}
	if r.trace {
		spans := tr.Spans()
		r.layer["service.register_ms"] = meanSpan(spans, "service.register") * 1e3
		r.layer["service.mutate_us"] = meanSpan(spans, "service.mutate") * 1e6
		res.serviceLayer(r, spans)
		res.loadLayer(r)
		var steps float64
		for _, k := range sortedKeys(res.kinds) {
			ks := res.kinds[k]
			steps += float64(ks.supersteps)
			r.note("kind %s jobs=%d supersteps=%d p50_ms=%.3f", k, ks.jobs, ks.supersteps, quantile(ks.lat, 0.5))
		}
		r.layer["runtime.supersteps"] = steps
		if res.steps > 0 {
			r.layer["runtime.superstep_us"] = sum(res.lat) * 1e3 / float64(res.steps)
		}
		r.layer["bench.gen_lag_p99_ms"] = hdQuantile(res.lag, tailQuantile(len(res.lag), 0.99))
		r.layer["vc.inc.cold_frac"] = res.coldFrac()
		for _, in := range []*input{si.small["small-rmat"].in, si.small["small-plaw"].in, si.evolving} {
			sp := tr.Begin("graph.build", 0, 0)
			t0 := time.Now()
			g := in.build()
			csr := g.Pin()
			r.layer["graph.build_ms"] += time.Since(t0).Seconds() * 1e3
			tr.End(sp)
			r.layer["graph.edge_bytes"] += float64(csr.EdgeBytes())
			g.Unpin(csr)
		}
	}
	return nil
}

// incChain is the head of the resume chain: the last incremental cc
// and sssp jobs that succeeded on the evolving graph.
type incChain struct{ cc, sssp int64 }

// servingSetup registers the three graphs and warms each path once: a
// job per small graph pins its first snapshot, and cold incremental cc
// and sssp runs start the resume chain.
func servingSetup(s *server, si *servingInputs) (incChain, error) {
	for _, body := range si.bodies {
		if err := s.c.register(body, 0); err != nil {
			return incChain{}, err
		}
	}
	warm := []service.JobSpec{
		{Graph: "small-rmat", Algo: "cc"},
		{Graph: "small-plaw", Algo: "cc"},
		{Graph: evolvingGraph, Algo: "cc", Engine: "inc"},
		{Graph: evolvingGraph, Algo: "sssp", Engine: "inc"},
	}
	var ids []int64
	for _, spec := range warm {
		st, _, err := runJob(s.c, spec, time.Now(), 0, 0)
		if err != nil {
			return incChain{}, fmt.Errorf("warm-up: %w", err)
		}
		ids = append(ids, st.id)
	}
	return incChain{cc: ids[2], sssp: ids[3]}, nil
}

// ack is one acknowledged mutation batch.
type ack struct {
	batch int
	epoch int64
}

// incResult is one succeeded repair job, kept for the offline check.
type incResult struct {
	algo   string
	epoch  int64
	cold   bool
	values map[int]float64
}

type servingWindow struct {
	window
	lag    []float64 // ms the writer sent a batch late
	mutLat []float64 // ms, scheduled send to acknowledged epoch
	repair []float64 // ms, scheduled send to both repairs done
	acks   []ack
	incs   []incResult
	steps  int
}

func (w *servingWindow) coldFrac() float64 {
	if len(w.incs) == 0 {
		return 0
	}
	cold := 0
	for _, in := range w.incs {
		if in.cold {
			cold++
		}
	}
	return float64(cold) / float64(len(w.incs))
}

func (w *servingWindow) report(r *run) {
	q := tailQuantile(len(w.lat), 0.99)
	r.note("job_latency p%g_ms=%.3f samples=%d", 100*q, hdQuantile(w.lat, q), len(w.lat))
	for _, m := range []struct {
		name string
		xs   []float64
	}{{"mutate", w.mutLat}, {"repair", w.repair}} {
		q := tailQuantile(len(m.xs), 0.90)
		r.note("%s_latency samples=%d p50_ms=%.3f tail=p%g tail_ms=%.3f", m.name, len(m.xs), hdQuantile(m.xs, 0.5), 100*q, hdQuantile(m.xs, q))
	}
	r.note("writer lag_p99_ms=%.3f samples=%d", hdQuantile(w.lag, tailQuantile(len(w.lag), 0.99)), len(w.lag))
}

// dithered spaces the polls of one job by about a quarter of its age:
// a handful of polls for a short job, and a bounded share of the two
// CPUs for polling. The delay is dithered by ±50%, so observed
// completion times do not pile up on a fixed comb of poll instants
// (which made latency percentiles jump from one tooth to the next).
func dithered(age time.Duration, jitter *rand.Rand) time.Duration {
	d := min(max(age/4, 250*time.Microsecond), 5*time.Millisecond)
	return time.Duration(float64(d) * (0.5 + jitter.Float64()))
}

// await polls job id until it is terminal, with dithered delays.
func await(c *client, id int64, sent time.Time, jitter *rand.Rand, parent, req int64) (*jobStatus, int, error) {
	for polls := 1; ; polls++ {
		time.Sleep(dithered(time.Since(sent), jitter))
		st, err := c.status(id, parent, req)
		if err != nil {
			return nil, polls, err
		}
		if st.terminal() {
			return st, polls, nil
		}
		if time.Since(sent) > waitLimit {
			return nil, polls, fmt.Errorf("job %d not done after %v", id, waitLimit)
		}
	}
}

// runServingWindow runs the reader on this goroutine and the writer on
// one more, from offset from to offset to of the mutation schedule:
// two client goroutines on two connections. The reader submits short
// jobs back to back; the writer sends each batch at its scheduled time,
// then chains the two repairs and waits for them.
func runServingWindow(r *run, srv *server, tr *Tracer, si *servingInputs, from, to time.Duration, chain *incChain, next func() shortJob, jitter *rand.Rand) *servingWindow {
	c := *srv.c
	c.tr = tr
	w := &servingWindow{window: window{kinds: map[string]*kindStats{}}}
	stop := startLoadSampler(srv.srv.Scheduler(), tr != nil)
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		writer(r, &c, w, si, start, from, to, chain, rngFor(r.seed+int64(from), 20))
	}()
	var req int64
	for time.Since(start) < to-from {
		req++
		j := next()
		root := tr.Begin("bench.job", 0, req)
		sent := time.Now()
		st, polls, err := readJob(&c, si, j, sent, jitter, root, req)
		lat := time.Since(sent)
		tr.End(root)
		w.polls += polls
		w.jobs++
		if !r.op(err) {
			continue
		}
		ms := lat.Seconds() * 1000
		w.ok++
		w.lat = append(w.lat, ms)
		key := j.spec.Engine + "." + j.spec.Algo + "." + j.spec.Graph
		ks := w.kinds[key]
		if ks == nil {
			ks = &kindStats{supersteps: st.Summary.Supersteps}
			w.kinds[key] = ks
		}
		ks.jobs++
		ks.lat = append(ks.lat, ms)
		w.steps += st.Summary.Supersteps
	}
	w.elapsed = time.Since(start)
	wg.Wait()
	w.queueMean, w.inflightMean = stop()
	return w
}

// readJob submits one short job, waits for it, and checks its verdict
// and one point query against the oracle.
func readJob(c *client, si *servingInputs, j shortJob, sent time.Time, jitter *rand.Rand, root, req int64) (*jobStatus, int, error) {
	id, err := c.submit(j.spec, root, req)
	if err != nil {
		return nil, 0, err
	}
	st, polls, err := await(c, id, sent, jitter, root, req)
	if err != nil {
		return nil, polls, err
	}
	if st.State != "succeeded" {
		return nil, polls, fmt.Errorf("job %d (%s/%s) %s: %s", id, j.spec.Algo, j.spec.Engine, st.State, st.Error)
	}
	ai := si.small[j.spec.Graph]
	if err := ai.or.checkVerdict(j.spec.Algo, j.spec.Engine, j.spec.K, j.spec.Eps, st.Verdict); err != nil {
		return nil, polls, err
	}
	v := j.vertex % ai.in.n
	if j.spec.Algo == "sssp" {
		v = ai.sample[j.vertex%len(ai.sample)]
	}
	got, err := c.query(id, v, root, req)
	if err != nil {
		return nil, polls, err
	}
	return st, polls, ai.or.checkValue(j.spec.Algo, j.spec.Engine, j.spec.K, j.spec.Eps, v, got)
}

// writer sends the batches scheduled in [from, to) at their times.
// After each acknowledged batch it submits incremental cc and sssp
// resuming the previous repairs, waits for both, and queries sampled
// vertices for the offline check. A batch due while a repair runs is
// sent late; the lateness is recorded.
func writer(r *run, c *client, w *servingWindow, si *servingInputs, start time.Time, from, to time.Duration, chain *incChain, jitter *rand.Rand) {
	for b, at := range si.mutAt {
		if at < from || at >= to {
			continue
		}
		due := start.Add(at - from)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		w.lag = append(w.lag, time.Since(due).Seconds()*1000)
		req := int64(1<<30) + int64(b)
		root := c.tr.Begin("bench.mutation", 0, req)
		epoch, err := c.mutate(evolvingGraph, si.batches[b], root, req)
		if !r.op(err) {
			c.tr.End(root)
			return // the mirror replay needs every batch
		}
		w.mutLat = append(w.mutLat, time.Since(due).Seconds()*1000)
		var results []incResult
		ids := map[string]*int64{"cc": &chain.cc, "sssp": &chain.sssp}
		for _, algo := range []string{"cc", "sssp"} {
			res, id, err := repair(c, algo, *ids[algo], epoch, jitter, root, req)
			if !r.op(err) {
				c.tr.End(root)
				return // a broken chain cannot resume
			}
			*ids[algo] = id
			results = append(results, res)
		}
		c.tr.End(root)
		w.repair = append(w.repair, time.Since(due).Seconds()*1000)
		w.acks = append(w.acks, ack{batch: b, epoch: epoch})
		w.incs = append(w.incs, results...)
	}
}

// repair submits one incremental job resuming prior, waits for it, and
// queries sampled vertices.
func repair(c *client, algo string, prior, epoch int64, jitter *rand.Rand, root, req int64) (incResult, int64, error) {
	res := incResult{algo: algo, values: map[int]float64{}}
	id, err := c.submit(service.JobSpec{Graph: evolvingGraph, Algo: algo, Engine: "inc", Resume: prior}, root, req)
	if err != nil {
		return res, 0, err
	}
	st, _, err := await(c, id, time.Now(), jitter, root, req)
	if err != nil {
		return res, 0, err
	}
	if st.State != "succeeded" {
		return res, 0, fmt.Errorf("repair job %d (%s) %s: %s", id, algo, st.State, st.Error)
	}
	if st.Epoch < epoch {
		return res, 0, fmt.Errorf("repair job %d (%s) ran at epoch %d, before batch epoch %d", id, algo, st.Epoch, epoch)
	}
	res.epoch, res.cold = st.Epoch, st.Cold
	qr := rngFor(id, 18)
	for i := 0; i < incQueries; i++ {
		v := qr.Intn(evolvingN)
		if res.values[v], err = c.query(id, v, root, req); err != nil {
			return res, 0, err
		}
	}
	return res, id, nil
}

// servingReplay replays the acknowledged batches on the benchmark's
// mirror of the evolving graph. At every epoch a repair job reported,
// it checks the job's sampled values against a from-scratch reference;
// in the traced run it also times the graph and incremental layers
// directly on the mirror.
func servingReplay(r *run, tr *Tracer, si *servingInputs, w *servingWindow) error {
	if len(w.acks) == 0 {
		return nil
	}
	byEpoch := map[int64][]incResult{}
	for _, in := range w.incs {
		byEpoch[in.epoch] = append(byEpoch[in.epoch], in)
	}
	mirror := si.evolving.build()
	sort.Slice(w.acks, func(i, j int) bool { return w.acks[i].batch < w.acks[j].batch })
	epoch0 := w.acks[0].epoch - int64(w.acks[0].batch) - 1
	check := func(epoch int64) {
		ins := byEpoch[epoch]
		if len(ins) == 0 {
			return
		}
		var ops seq.Ops
		dist := seq.Dijkstra(mirror, 0, &ops)
		comp := seq.Components(mirror, &ops)
		for _, in := range ins {
			var err error
			for v, got := range in.values {
				want := float64(comp[v])
				if in.algo == "sssp" {
					want = dist[v]
					if !finite(want) && !finite(got) {
						continue
					}
				}
				if got != want {
					err = fmt.Errorf("repair %s at epoch %d: vertex %d = %v, want %v", in.algo, epoch, v, got, want)
					break
				}
			}
			r.op(err)
		}
		delete(byEpoch, epoch)
	}
	check(epoch0)
	var apply, pin, ccUS, ssspUS, work []float64
	var ccState *vc.IncCCState
	var ssspState *vc.IncSSSPState
	if r.trace {
		ccState, _, _ = vc.IncrementalCC(mirror, nil, vc.IncConfig{})
		ssspState, _, _ = vc.IncrementalSSSP(mirror, 0, nil, vc.IncConfig{})
	}
	last := w.acks[len(w.acks)-1].batch
	for b := 0; b <= last; b++ {
		muts := make([]graph.Mutation, len(si.batches[b]))
		for i, m := range si.batches[b] {
			op := graph.InsertEdge
			if m.Op == "delete" {
				op = graph.DeleteEdge
			}
			muts[i] = graph.Mutation{Op: op, U: graph.VertexID(m.U), V: graph.VertexID(m.V), W: m.W}
		}
		req := int64(1<<32) + int64(b)
		sp := tr.Begin("graph.apply", 0, req)
		t0 := time.Now()
		_, err := mirror.ApplyMutations(muts)
		apply = append(apply, float64(time.Since(t0).Microseconds()))
		tr.End(sp)
		if err != nil {
			return fmt.Errorf("mirror batch %d: %w", b, err)
		}
		if r.trace {
			sp = tr.Begin("graph.pin", 0, req)
			t0 = time.Now()
			d := mirror.PinDelta()
			pin = append(pin, float64(time.Since(t0).Nanoseconds())/1e3)
			mirror.UnpinDelta(d)
			tr.End(sp)

			sp = tr.Begin("vc.inc_cc", 0, req)
			t0 = time.Now()
			st, stats, err := vc.PrepareIncrementalCC(mirror, ccState, vc.IncConfig{})()
			ccUS = append(ccUS, float64(time.Since(t0).Nanoseconds())/1e3)
			tr.End(sp)
			if !r.op(err) {
				return nil
			}
			ccState = st
			work = append(work, float64(stats.TotalWork))

			sp = tr.Begin("vc.inc_sssp", 0, req)
			t0 = time.Now()
			ss, stats, err := vc.PrepareIncrementalSSSP(mirror, 0, ssspState, vc.IncConfig{})()
			ssspUS = append(ssspUS, float64(time.Since(t0).Nanoseconds())/1e3)
			tr.End(sp)
			if !r.op(err) {
				return nil
			}
			ssspState = ss
			work = append(work, float64(stats.TotalWork))
		}
		check(epoch0 + int64(b) + 1)
	}
	for epoch, ins := range byEpoch {
		for range ins {
			r.op(fmt.Errorf("repair reported epoch %d, which no acknowledged batch produced", epoch))
		}
	}
	if r.trace {
		r.layer["graph.apply_us"] = mean(apply)
		r.layer["graph.pin_us"] = mean(pin)
		r.layer["vc.inc_cc.repair_us"] = mean(ccUS)
		r.layer["vc.inc_sssp.repair_us"] = mean(ssspUS)
		r.layer["vc.inc.work"] = mean(work)
	}
	return nil
}
