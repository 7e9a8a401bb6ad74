package runtime

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"vcgraph/internal/bsp"
)

// countPolicy runs a fixed number of supersteps, dispatching one
// no-op phase per step through the driver's lease.
type countPolicy struct {
	d     *Driver[int]
	steps int
	limit int
	// block, when non-nil, is received from at the top of every
	// superstep so tests can hold a run mid-flight.
	block chan struct{}
}

func (p *countPolicy) Quiescent(step, pending int) bool { return p.steps >= p.limit }
func (p *countPolicy) Superstep(step int, ss *bsp.SuperstepStats) (int, error) {
	if p.block != nil {
		<-p.block
	}
	p.d.Lease().Run(func(w int) {})
	ss.Work[0]++
	p.steps++
	return 1, nil
}
func (p *countPolicy) Snapshot() int                       { return p.steps }
func (p *countPolicy) Restore(snap int, step int, ok bool) { p.steps = snap }

func runCounting(limit int, cfg DriverConfig) (*countPolicy, *Driver[int], *bsp.Stats) {
	stats := &bsp.Stats{Workers: cfg.Workers}
	p := &countPolicy{limit: limit}
	d := NewDriver[int](p, stats, cfg)
	p.d = d
	return p, d, stats
}

func TestLeaseRunsAllVirtualWorkers(t *testing.T) {
	pool := NewPool(2)
	defer pool.Close()
	// A share wider than the physical pool still runs every virtual
	// worker exactly once per phase.
	l := pool.Lease(8)
	if l.Workers() != 8 {
		t.Fatalf("lease workers = %d, want 8", l.Workers())
	}
	var hits [8]int32
	for phase := 0; phase < 3; phase++ {
		l.Run(func(w int) { atomic.AddInt32(&hits[w], 1) })
	}
	for w, h := range hits {
		if h != 3 {
			t.Fatalf("virtual worker %d ran %d times, want 3", w, h)
		}
	}
}

func TestLeaseZeroShareDefaultsToPoolWidth(t *testing.T) {
	pool := NewPool(3)
	defer pool.Close()
	if got := pool.Lease(0).Workers(); got != 3 {
		t.Fatalf("Lease(0).Workers() = %d, want 3", got)
	}
}

func TestDriverSharedPoolServesSequentialRuns(t *testing.T) {
	pool := NewPool(2)
	defer pool.Close()
	for i := 0; i < 3; i++ {
		p, d, _ := runCounting(4, DriverConfig{Name: "test", Workers: 2, MaxSteps: 100, Pool: pool})
		steps, err := d.Run()
		if err != nil || steps != 4 || p.steps != 4 {
			t.Fatalf("run %d: steps=%d err=%v", i, steps, err)
		}
	}
}

func TestDriverCtxAbortsWithoutRollback(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// Faults scheduled but the abort must win at the barrier: no fault
	// fires, no rollback happens, and the cause comes back wrapped.
	_, d, stats := runCounting(1000, DriverConfig{
		Name: "test", Workers: 2, MaxSteps: 10000,
		RunEnv: RunEnv{Ctx: ctx, CheckpointEvery: 2, Faults: NewFaultPlan(7)},
	})
	steps, err := d.Run()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if steps != 0 {
		t.Fatalf("steps = %d, want 0 (cancelled before the first barrier)", steps)
	}
	if stats.Recovery.Rollbacks != 0 {
		t.Fatalf("rollbacks = %d, want 0 on abort", stats.Recovery.Rollbacks)
	}
}

func TestDriverCtxDeadlineCause(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	<-ctx.Done()
	_, d, _ := runCounting(1000, DriverConfig{Name: "test", Workers: 1, MaxSteps: 10000, RunEnv: RunEnv{Ctx: ctx}})
	if _, err := d.Run(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

func TestSchedulerAdmitsFIFO(t *testing.T) {
	s := NewScheduler(2, 1)
	defer s.Close()
	gate := make(chan struct{})
	var order []int64
	var mu chan struct{} = make(chan struct{}, 1)
	mu <- struct{}{}
	mk := func() *Job {
		return s.Submit(context.Background(), "j", 2, func(j *Job) error {
			<-mu
			order = append(order, j.ID())
			mu <- struct{}{}
			<-gate
			return nil
		})
	}
	j1 := mk()
	// Ensure j1 is admitted before the others are submitted, so the
	// FIFO order under test is deterministic.
	for s.InFlight() == 0 {
		time.Sleep(time.Millisecond)
	}
	j2 := mk()
	for s.QueueLen() == 0 {
		time.Sleep(time.Millisecond)
	}
	j3 := mk()
	for s.QueueLen() < 2 {
		time.Sleep(time.Millisecond)
	}
	if got := s.InFlight(); got != 1 {
		t.Fatalf("inflight = %d, want 1", got)
	}
	close(gate)
	for _, j := range []*Job{j1, j2, j3} {
		if err := j.Wait(); err != nil {
			t.Fatalf("job %d: %v", j.ID(), err)
		}
	}
	if len(order) != 3 || order[0] != j1.ID() || order[1] != j2.ID() || order[2] != j3.ID() {
		t.Fatalf("admission order %v, want [%d %d %d]", order, j1.ID(), j2.ID(), j3.ID())
	}
	if s.InFlight() != 0 || s.QueueLen() != 0 {
		t.Fatalf("scheduler not drained: inflight=%d queued=%d", s.InFlight(), s.QueueLen())
	}
}

func TestSchedulerCancelWhileQueued(t *testing.T) {
	s := NewScheduler(2, 1)
	defer s.Close()
	gate := make(chan struct{})
	ran := int32(0)
	j1 := s.Submit(context.Background(), "holder", 2, func(j *Job) error {
		<-gate
		return nil
	})
	for s.InFlight() == 0 {
		time.Sleep(time.Millisecond)
	}
	j2 := s.Submit(context.Background(), "queued", 2, func(j *Job) error {
		atomic.AddInt32(&ran, 1)
		return nil
	})
	for s.QueueLen() == 0 {
		time.Sleep(time.Millisecond)
	}
	cause := errors.New("operator cancelled")
	j2.Cancel(cause)
	if err := j2.Wait(); !errors.Is(err, cause) {
		t.Fatalf("queued job err = %v, want the cancel cause", err)
	}
	if st := j2.State(); st != JobCancelled {
		t.Fatalf("queued job state = %v, want cancelled", st)
	}
	if atomic.LoadInt32(&ran) != 0 {
		t.Fatal("cancelled queued job ran its function")
	}
	if s.QueueLen() != 0 {
		t.Fatalf("queue len = %d after cancel, want 0", s.QueueLen())
	}
	close(gate)
	if err := j1.Wait(); err != nil {
		t.Fatalf("holder: %v", err)
	}
	if s.InFlight() != 0 {
		t.Fatalf("inflight = %d, want 0", s.InFlight())
	}
}

func TestJobCancelMidRunFreesSlotAndRunsCleanups(t *testing.T) {
	s := NewScheduler(2, 2)
	defer s.Close()
	block := make(chan struct{}, 1)
	var cleaned []string
	job := s.Submit(context.Background(), "test", 2, func(j *Job) error {
		j.OnCleanup(func() { cleaned = append(cleaned, "first") })
		j.OnCleanup(func() { cleaned = append(cleaned, "second") })
		p, d, _ := runCounting(1000, DriverConfig{Name: "test", Workers: 2, MaxSteps: 10000, RunEnv: RunEnv{Job: j}})
		p.block = block
		_, err := d.Run()
		return err
	})
	block <- struct{}{} // let one superstep through
	for job.Steps() == 0 {
		time.Sleep(time.Millisecond)
	}
	job.Cancel(nil)
	block <- struct{}{} // release the superstep in flight
	err := job.Wait()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st := job.State(); st != JobCancelled {
		t.Fatalf("state = %v, want cancelled", st)
	}
	// The admission slot is back and cleanups ran LIFO.
	if s.InFlight() != 0 {
		t.Fatalf("inflight = %d after cancel, want 0", s.InFlight())
	}
	if len(cleaned) != 2 || cleaned[0] != "second" || cleaned[1] != "first" {
		t.Fatalf("cleanups = %v, want LIFO [second first]", cleaned)
	}
}

// TestJobCleanupAfterEnd registers a cleanup once the job has ended,
// as a caller does after Submit when the job finishes at once (a
// Submit after Close): it must still run.
func TestJobCleanupAfterEnd(t *testing.T) {
	s := NewScheduler(1, 1)
	s.Close()
	job := s.Submit(context.Background(), "late", 1, func(*Job) error { return nil })
	if err := job.Wait(); !errors.Is(err, ErrClosed) || job.State() != JobCancelled {
		t.Fatalf("job after Close: state %v err %v, want cancelled with ErrClosed", job.State(), err)
	}
	ran := false
	job.OnCleanup(func() { ran = true })
	if !ran {
		t.Fatal("cleanup registered after the job ended never ran")
	}
}

func TestJobTraceStreams(t *testing.T) {
	s := NewScheduler(2, 1)
	defer s.Close()
	job := s.Submit(context.Background(), "trace", 2, func(j *Job) error {
		_, d, _ := runCounting(5, DriverConfig{Name: "trace", Workers: 2, MaxSteps: 100, RunEnv: RunEnv{Job: j}})
		_, err := d.Run()
		return err
	})
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}
	if job.State() != JobSucceeded {
		t.Fatalf("state = %v, want succeeded", job.State())
	}
	all := job.TraceSince(0)
	if len(all) != 5 || job.Steps() != 5 {
		t.Fatalf("trace has %d records (Steps %d), want 5", len(all), job.Steps())
	}
	if tail := job.TraceSince(3); len(tail) != 2 {
		t.Fatalf("TraceSince(3) returned %d records, want 2", len(tail))
	}
	if job.TraceSince(5) != nil {
		t.Fatal("TraceSince(len) should be nil")
	}
}

func TestSubmitFailureStates(t *testing.T) {
	s := NewScheduler(1, 1)
	defer s.Close()
	boom := errors.New("boom")
	if err := s.Submit(context.Background(), "fail", 1, func(j *Job) error { return boom }).Wait(); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	j := s.Submit(context.Background(), "fail", 1, func(j *Job) error { return boom })
	j.Wait()
	if j.State() != JobFailed {
		t.Fatalf("state = %v, want failed", j.State())
	}
	ok := s.Submit(context.Background(), "ok", 1, func(j *Job) error { return nil })
	if err := ok.Wait(); err != nil || ok.State() != JobSucceeded {
		t.Fatalf("state = %v err = %v, want succeeded/nil", ok.State(), err)
	}
}
