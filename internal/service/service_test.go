package service

import (
	"context"
	"errors"
	"math"
	"sort"
	"testing"
	"time"

	rt "vcgraph/internal/runtime"
)

// testGraph is the shared graph spec for the concurrency tests: a
// connected weighted graph so every served algorithm has meaningful
// output.
func testGraph(name string) GraphSpec {
	return GraphSpec{Name: name, Gen: "connected", N: 400, M: 1200, Seed: 7, Weights: true}
}

// mixedSpecs is the 16-job serving mix: every algorithm × engine pair
// in the matrix, plus fault-plan and FCS variants. Workers are pinned
// so lease shares (and therefore per-engine partitioning) are
// identical between serial and concurrent runs.
func mixedSpecs(graphName string) []JobSpec {
	w := 2
	return []JobSpec{
		{Graph: graphName, Algo: "pagerank", Engine: "pregel", Workers: w},
		{Graph: graphName, Algo: "pagerank", Engine: "gas", Workers: w},
		{Graph: graphName, Algo: "pagerank", Engine: "async"},
		{Graph: graphName, Algo: "pagerank", Engine: "blockcentric", Workers: w},
		{Graph: graphName, Algo: "sssp", Engine: "pregel", Workers: w},
		{Graph: graphName, Algo: "sssp", Engine: "gas", Workers: w},
		{Graph: graphName, Algo: "sssp", Engine: "async"},
		{Graph: graphName, Algo: "sssp", Engine: "blockcentric", Workers: w},
		{Graph: graphName, Algo: "cc", Engine: "pregel", Workers: w, FCS: 8},
		{Graph: graphName, Algo: "cc", Engine: "gas", Workers: w},
		{Graph: graphName, Algo: "cc", Engine: "async"},
		{Graph: graphName, Algo: "cc", Engine: "blockcentric", Workers: w},
		{Graph: graphName, Algo: "kcore", Engine: "pregel", Workers: w},
		{Graph: graphName, Algo: "pagerank", Engine: "pregel", Workers: w, Faults: 11},
		{Graph: graphName, Algo: "sssp", Engine: "pregel", Workers: w, Faults: 13},
		{Graph: graphName, Algo: "cc", Engine: "blockcentric", Workers: w, Faults: 17},
	}
}

func waitResult(t *testing.T, s *Server, job *rt.Job) *runResult {
	t.Helper()
	if err := job.Wait(); err != nil {
		t.Fatalf("job %d (%s): %v", job.ID(), job.Name(), err)
	}
	rec, err := s.JobRecord(job.ID())
	if err != nil {
		t.Fatal(err)
	}
	res := rec.result()
	if res == nil {
		t.Fatalf("job %d (%s): succeeded without result", job.ID(), job.Name())
	}
	return res
}

func bits(values []float64) []uint64 {
	out := make([]uint64, len(values))
	for i, v := range values {
		out[i] = math.Float64bits(v)
	}
	return out
}

// TestConcurrentJobsMatchSerial is the headline acceptance test: 16
// mixed jobs (all four algorithms across all four engines, three with
// deterministic fault plans, one with FCS) admitted 4-at-a-time over
// one shared pool must produce byte-identical results to the same
// specs run strictly one-at-a-time.
func TestConcurrentJobsMatchSerial(t *testing.T) {
	specs := mixedSpecs("g")

	serial := New(4, 1)
	defer serial.Close()
	if err := serial.RegisterGraph(testGraph("g")); err != nil {
		t.Fatal(err)
	}
	want := make([][]uint64, len(specs))
	for i, spec := range specs {
		job, err := serial.Submit(spec)
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		want[i] = bits(waitResult(t, serial, job).values)
	}

	conc := New(4, 4)
	defer conc.Close()
	if err := conc.RegisterGraph(testGraph("g")); err != nil {
		t.Fatal(err)
	}
	jobs := make([]*rt.Job, len(specs))
	for i, spec := range specs {
		job, err := conc.Submit(spec)
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		jobs[i] = job
	}
	for i, job := range jobs {
		got := bits(waitResult(t, conc, job).values)
		if len(got) != len(want[i]) {
			t.Fatalf("spec %d (%s/%s): %d values, want %d",
				i, specs[i].Algo, specs[i].Engine, len(got), len(want[i]))
		}
		for v := range got {
			if got[v] != want[i][v] {
				t.Fatalf("spec %d (%s/%s): vertex %d bits %#x != serial %#x",
					i, specs[i].Algo, specs[i].Engine, v, got[v], want[i][v])
			}
		}
	}
	if got := conc.Scheduler().InFlight(); got != 0 {
		t.Fatalf("inflight = %d after drain, want 0", got)
	}
}

// TestCancelledJobFreesLeaseAndPins cancels a job mid-run and checks
// the two resources the issue names: the scheduler admission slot and
// the pinned CSR snapshot are both released.
func TestCancelledJobFreesLeaseAndPins(t *testing.T) {
	s := New(2, 1)
	defer s.Close()
	if err := s.RegisterGraph(testGraph("g")); err != nil {
		t.Fatal(err)
	}
	// A PageRank long enough that cancellation always lands mid-run.
	job, err := s.Submit(JobSpec{Graph: "g", Algo: "pagerank", Engine: "pregel", Workers: 2, K: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for job.Steps() == 0 {
		time.Sleep(time.Millisecond)
	}
	ent, err := s.graph("g")
	if err != nil {
		t.Fatal(err)
	}
	if ent.g.Pins() == 0 {
		t.Fatal("running job holds no pinned snapshot")
	}
	if err := s.Cancel(job.ID()); err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st := job.State(); st != rt.JobCancelled {
		t.Fatalf("state = %v, want cancelled", st)
	}
	if got := ent.g.Pins(); got != 0 {
		t.Fatalf("pins = %d after cancel, want 0", got)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Scheduler().InFlight() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("inflight = %d after cancel, want 0", s.Scheduler().InFlight())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSnapshotIsolationDifferential mutates the graph while a job is
// running and checks the job's result is byte-identical to a run with
// no concurrent mutation: the job computed on the snapshot it pinned,
// not on the moving graph. Run under -race this also proves the
// prepare-bracket locking keeps mutation and execution disjoint.
func TestSnapshotIsolationDifferential(t *testing.T) {
	spec := JobSpec{Graph: "g", Algo: "pagerank", Engine: "pregel", Workers: 2, K: 200}

	quiet := New(2, 1)
	defer quiet.Close()
	if err := quiet.RegisterGraph(testGraph("g")); err != nil {
		t.Fatal(err)
	}
	job, err := quiet.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := bits(waitResult(t, quiet, job).values)

	noisy := New(2, 1)
	defer noisy.Close()
	if err := noisy.RegisterGraph(testGraph("g")); err != nil {
		t.Fatal(err)
	}
	_, m0, _, _, _ := noisy.GraphInfo("g")
	job, err = noisy.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Let the prepare phase pin its snapshot first, then hammer the
	// graph with edge additions for as long as the job runs.
	for job.Steps() == 0 {
		time.Sleep(time.Millisecond)
	}
	mutations := 0
	for !job.State().Terminal() {
		u := float64(mutations % 400)
		v := float64((mutations*31 + 1) % 400)
		if err := noisy.AddEdges("g", [][]float64{{u, v}}); err != nil {
			t.Fatal(err)
		}
		mutations++
	}
	got := bits(waitResult(t, noisy, job).values)
	_, m1, _, _, _ := noisy.GraphInfo("g")
	if mutations == 0 || m1 <= m0 {
		t.Fatalf("graph never mutated during the run (mutations=%d m %d->%d)", mutations, m0, m1)
	}
	for v := range got {
		if got[v] != want[v] {
			t.Fatalf("vertex %d bits %#x != quiet-run %#x after %d concurrent mutations",
				v, got[v], want[v], mutations)
		}
	}
	// A job submitted after the mutations sees the republished graph.
	job, err = noisy.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	after := bits(waitResult(t, noisy, job).values)
	same := true
	for v := range after {
		if after[v] != want[v] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("post-mutation job returned pre-mutation results: snapshot was not republished")
	}
}

// TestSubmitValidation checks the eager validation paths: unknown
// graph, unknown algorithm, and a pair outside the serving matrix all
// fail before anything queues.
func TestSubmitValidation(t *testing.T) {
	s := New(1, 1)
	defer s.Close()
	if err := s.RegisterGraph(GraphSpec{Name: "g", Gen: "path", N: 8}); err != nil {
		t.Fatal(err)
	}
	cases := []JobSpec{
		{Graph: "nope", Algo: "pagerank"},
		{Graph: "g", Algo: "mincut"},
		{Graph: "g", Algo: "kcore", Engine: "gas"},
		{Graph: "g", Algo: "pagerank", Mode: "sideways"},
	}
	for i, spec := range cases {
		if _, err := s.Submit(spec); err == nil {
			t.Fatalf("case %d (%+v): Submit accepted an invalid spec", i, spec)
		}
	}
	if s.Scheduler().QueueLen() != 0 || s.Scheduler().InFlight() != 0 {
		t.Fatal("invalid specs reached the scheduler")
	}
}

// TestJobTimeout checks TimeoutMS cancels a run and classifies it as
// cancelled, not failed.
func TestJobTimeout(t *testing.T) {
	s := New(2, 1)
	defer s.Close()
	if err := s.RegisterGraph(testGraph("g")); err != nil {
		t.Fatal(err)
	}
	job, err := s.Submit(JobSpec{
		Graph: "g", Algo: "pagerank", Engine: "pregel", Workers: 2,
		K: 1 << 20, TimeoutMS: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if st := job.State(); st != rt.JobCancelled {
		t.Fatalf("state = %v, want cancelled", st)
	}
}

// TestRegisterGraphErrors covers registry validation.
func TestRegisterGraphErrors(t *testing.T) {
	s := New(1, 1)
	defer s.Close()
	if err := s.RegisterGraph(GraphSpec{Gen: "path", N: 4}); err == nil {
		t.Fatal("registered a graph with no name")
	}
	if err := s.RegisterGraph(GraphSpec{Name: "g", Gen: "hypercube", N: 4}); err == nil {
		t.Fatal("registered an unknown generator")
	}
	if err := s.RegisterGraph(GraphSpec{Name: "g", N: 4, Edges: [][]float64{{0, 9}}}); err == nil {
		t.Fatal("registered an out-of-range edge")
	}
	if err := s.RegisterGraph(GraphSpec{Name: "g", Gen: "path", N: 4}); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterGraph(GraphSpec{Name: "g", Gen: "path", N: 4}); err == nil {
		t.Fatal("re-registered a taken name")
	}
	if err := s.AddEdges("g", [][]float64{{0, 1, 2, 3}}); err == nil {
		t.Fatal("accepted a malformed edge")
	}
	if err := s.AddEdges("missing", nil); err == nil {
		t.Fatal("added edges to an unknown graph")
	}
}

// TestServingTableRunEnv submits every serving-table pair with a
// checkpoint at every step, every third frame full, and a seeded fault
// plan whose first crash lands at step 1. The run environment must
// reach the engine — checkpoint frames in the summary, delta frames
// where the engine saves them, and a rollback — and recovery must
// leave the values byte-identical to the fault-free job, as every
// engine's differential suite demands.
func TestServingTableRunEnv(t *testing.T) {
	s := New(2, 2)
	defer s.Close()
	if err := s.RegisterGraph(GraphSpec{Name: "g", Gen: "connected", N: 60, M: 150, Seed: 3, Weights: true}); err != nil {
		t.Fatal(err)
	}
	keys := make([]servingKey, 0, len(serving))
	for k := range serving {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		return keys[i].algo+"/"+keys[i].engine < keys[j].algo+"/"+keys[j].engine
	})
	run := func(t *testing.T, spec JobSpec) *runResult {
		t.Helper()
		job, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		return waitResult(t, s, job)
	}
	for _, k := range keys {
		t.Run(k.algo+"/"+k.engine, func(t *testing.T) {
			spec := JobSpec{Graph: "g", Algo: k.algo, Engine: k.engine, Workers: 2, Src: 4}
			want := bits(run(t, spec).values)
			spec.Checkpoint, spec.FullSnapshot, spec.Faults = 1, 3, 5
			res := run(t, spec)
			got := bits(res.values)
			if len(got) != len(want) {
				t.Fatalf("%d values, want %d", len(got), len(want))
			}
			for v := range got {
				if got[v] != want[v] {
					t.Fatalf("vertex %d bits %#x != fault-free %#x (summary %+v)", v, got[v], want[v], res.summary)
				}
			}
			sum := res.summary
			if sum.CheckpointBytesFull == 0 {
				t.Fatalf("no full checkpoint frames reported: %+v", sum)
			}
			// Incremental PageRank snapshots its rank vector whole; every
			// other engine saves dirty-set deltas between full frames.
			if k != (servingKey{"pagerank", "inc"}) && (sum.DeltaCheckpoints == 0 || sum.CheckpointBytesDelta == 0) {
				t.Fatalf("no delta checkpoint frames reported: %+v", sum)
			}
			if sum.Rollbacks == 0 {
				t.Fatalf("fault plan never rolled the run back: %+v", sum)
			}
		})
	}
}

// TestSubmitRejectsOutOfRangeSource: an sssp source outside [0, n)
// fails at Submit on every engine instead of reaching the engine,
// where the incremental one would index past its distance vector.
func TestSubmitRejectsOutOfRangeSource(t *testing.T) {
	s := New(2, 1)
	defer s.Close()
	if err := s.RegisterGraph(GraphSpec{Name: "g", Gen: "connected", N: 50, M: 100, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	for _, engine := range validEngines("sssp") {
		for _, src := range []int{50, 5000, -1} {
			if _, err := s.Submit(JobSpec{Graph: "g", Algo: "sssp", Engine: engine, Src: src}); err == nil {
				t.Fatalf("%s: Submit accepted source %d on a 50-vertex graph", engine, src)
			}
		}
	}
	if s.Scheduler().QueueLen() != 0 || s.Scheduler().InFlight() != 0 {
		t.Fatal("out-of-range sources reached the scheduler")
	}
	job, err := s.Submit(JobSpec{Graph: "g", Algo: "sssp", Engine: "inc", Src: 49})
	if err != nil {
		t.Fatal(err)
	}
	waitResult(t, s, job)
}

// TestSubmitRejectsNegativePageRankK: a negative iteration count fails
// at Submit on every engine instead of reaching the engine, where the
// incremental one would size a slice with it and panic the daemon.
// k = 0 still selects the default.
func TestSubmitRejectsNegativePageRankK(t *testing.T) {
	s := New(2, 1)
	defer s.Close()
	if err := s.RegisterGraph(GraphSpec{Name: "g", Gen: "connected", N: 50, M: 100, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	for _, engine := range validEngines("pagerank") {
		if _, err := s.Submit(JobSpec{Graph: "g", Algo: "pagerank", Engine: engine, K: -5}); err == nil {
			t.Fatalf("%s: Submit accepted k = -5", engine)
		}
	}
	if s.Scheduler().QueueLen() != 0 || s.Scheduler().InFlight() != 0 {
		t.Fatal("negative k reached the scheduler")
	}
	job, err := s.Submit(JobSpec{Graph: "g", Algo: "pagerank", Engine: "inc"})
	if err != nil {
		t.Fatal(err)
	}
	waitResult(t, s, job)
}

// TestCloseCancelsRunningJob closes the server while a job is mid-run:
// Close must cancel the job, wait for it, and only then stop the pool
// (a pool closed under a running job panics on its next phase
// dispatch). A job submitted after Close ends cancelled.
func TestCloseCancelsRunningJob(t *testing.T) {
	s := New(2, 1)
	if err := s.RegisterGraph(GraphSpec{Name: "p", Gen: "path", N: 20000}); err != nil {
		t.Fatal(err)
	}
	// Hash-Min on a long path runs one superstep per hop.
	job, err := s.Submit(JobSpec{Graph: "p", Algo: "cc", Engine: "pregel", Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for job.Steps() == 0 {
		time.Sleep(time.Millisecond)
	}
	if st := job.State(); st != rt.JobRunning {
		t.Fatalf("state = %v before Close, want running", st)
	}
	s.Close()
	if err := job.Wait(); !errors.Is(err, rt.ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if st := job.State(); st != rt.JobCancelled {
		t.Fatalf("state = %v, want cancelled", st)
	}

	late, err := s.Submit(JobSpec{Graph: "p", Algo: "cc", Engine: "pregel", Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := late.Wait(); !errors.Is(err, rt.ErrClosed) || late.State() != rt.JobCancelled {
		t.Fatalf("job after Close: state %v err %v, want cancelled with ErrClosed", late.State(), err)
	}
	s.Close()
}
