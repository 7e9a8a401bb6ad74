package runtime

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// ErrClosed is the cause of every job Scheduler.Close cancels, and of
// every job submitted after it. It wraps context.Canceled, so such
// jobs end JobCancelled.
var ErrClosed = fmt.Errorf("runtime: scheduler closed: %w", context.Canceled)

// Scheduler is the admission controller over one shared Pool: at most
// maxJobs runs hold a lease at a time; submissions beyond that queue
// FIFO. Admission bounds scratch memory (each in-flight run owns
// mailboxes, worklists, and checkpoint generations proportional to its
// graph) while the pool bounds CPU — the two are deliberately separate
// knobs, mirroring the job-slots vs. worker-threads split of the
// surveyed frameworks' cluster runtimes.
type Scheduler struct {
	pool    *Pool
	maxJobs int

	mu       sync.Mutex
	inflight int
	waiters  []*waiter
	nextID   int64
	closed   bool
	live     map[*Job]struct{} // submitted jobs not yet terminal
}

// waiter is one queued Acquire. granted flags the hand-off race: a
// slot may be granted concurrently with the waiter's context expiring,
// in which case the loser returns the slot.
type waiter struct {
	ready   chan struct{}
	granted bool
}

// NewScheduler builds a scheduler over a fresh pool of workers
// goroutines (0 = GOMAXPROCS), admitting at most maxJobs concurrent
// jobs (0 = 1).
func NewScheduler(workers, maxJobs int) *Scheduler {
	if maxJobs <= 0 {
		maxJobs = 1
	}
	var pool *Pool
	if workers <= 0 {
		pool = NewProcessPool()
	} else {
		pool = NewPool(workers)
	}
	return &Scheduler{pool: pool, maxJobs: maxJobs, live: make(map[*Job]struct{})}
}

// Pool returns the scheduler's shared worker pool.
func (s *Scheduler) Pool() *Pool { return s.pool }

// MaxJobs returns the admission limit.
func (s *Scheduler) MaxJobs() int { return s.maxJobs }

// InFlight returns the number of jobs currently holding a lease.
func (s *Scheduler) InFlight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inflight
}

// QueueLen returns the number of submissions waiting for admission.
func (s *Scheduler) QueueLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.waiters)
}

// Close cancels every unfinished job with cause ErrClosed, waits until
// each is terminal, and then releases the pool's goroutines. A running
// job stops at its next superstep barrier, so no job is still
// dispatching to the pool when it closes. Jobs submitted after Close
// end JobCancelled. Close is idempotent.
func (s *Scheduler) Close() {
	s.mu.Lock()
	s.closed = true
	live := make([]*Job, 0, len(s.live))
	for j := range s.live {
		j.Cancel(ErrClosed)
		live = append(live, j)
	}
	s.mu.Unlock()
	for _, j := range live {
		<-j.Done()
	}
	s.pool.Close()
}

// Acquire blocks until an admission slot is free (FIFO among waiters)
// and returns a lease for share virtual workers. The lease's Release
// returns the slot; every acquired lease must be released. If ctx ends
// first, Acquire returns its cause and the caller holds nothing.
func (s *Scheduler) Acquire(ctx context.Context, share int) (*Lease, error) {
	if err := ctx.Err(); err != nil {
		return nil, context.Cause(ctx)
	}
	s.mu.Lock()
	if s.inflight < s.maxJobs && len(s.waiters) == 0 {
		s.inflight++
		s.mu.Unlock()
		return s.newLease(share), nil
	}
	w := &waiter{ready: make(chan struct{})}
	s.waiters = append(s.waiters, w)
	s.mu.Unlock()

	select {
	case <-w.ready:
		return s.newLease(share), nil
	case <-ctx.Done():
		s.mu.Lock()
		if w.granted {
			// Lost the race: a slot was handed to us as the context
			// expired. Return it (possibly straight to the next waiter).
			s.releaseLocked()
			s.mu.Unlock()
			return nil, context.Cause(ctx)
		}
		for i, q := range s.waiters {
			if q == w {
				s.waiters = append(s.waiters[:i], s.waiters[i+1:]...)
				break
			}
		}
		s.mu.Unlock()
		return nil, context.Cause(ctx)
	}
}

// newLease attaches the admission slot's release to a pool lease.
func (s *Scheduler) newLease(share int) *Lease {
	l := s.pool.Lease(share)
	l.release = func() {
		s.mu.Lock()
		s.releaseLocked()
		s.mu.Unlock()
	}
	return l
}

// releaseLocked frees one slot and hands it to the oldest waiter.
func (s *Scheduler) releaseLocked() {
	s.inflight--
	if len(s.waiters) > 0 && s.inflight < s.maxJobs {
		w := s.waiters[0]
		s.waiters = s.waiters[1:]
		s.inflight++
		w.granted = true
		close(w.ready)
	}
}

// Submit enqueues a run as a Job: the job waits for admission (FIFO),
// runs fn with its lease attached, then releases the lease and runs
// its cleanups. fn observes cancellation through job.Context() — the
// driver checks it at every barrier — and the job's terminal state
// reflects how fn ended: nil = JobSucceeded, a context error (the
// job's own or inherited from ctx) = JobCancelled, anything else =
// JobFailed.
//
// Submit never blocks; poll the returned handle (Wait, Done, State,
// TraceSince) for progress.
func (s *Scheduler) Submit(ctx context.Context, name string, share int, fn func(j *Job) error) *Job {
	if ctx == nil {
		ctx = context.Background()
	}
	if share <= 0 {
		share = DefaultWorkers()
	}
	jctx, cancel := context.WithCancelCause(ctx)
	s.mu.Lock()
	s.nextID++
	id := s.nextID
	j := &Job{id: id, name: name, ctx: jctx, cancel: cancel, done: make(chan struct{})}
	if s.closed {
		cancel(ErrClosed) // Acquire fails at once: the pool is never used
	} else {
		s.live[j] = struct{}{}
	}
	s.mu.Unlock()

	go func() {
		defer close(j.done)
		defer j.runCleanups()
		defer cancel(nil)
		defer func() {
			s.mu.Lock()
			delete(s.live, j)
			s.mu.Unlock()
		}()

		lease, err := s.Acquire(jctx, share)
		if err != nil {
			j.finish(JobCancelled, err)
			return
		}
		defer lease.Release()
		j.setRunning(lease)

		err = fn(j)
		switch {
		case err == nil:
			j.finish(JobSucceeded, nil)
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			j.finish(JobCancelled, err)
		default:
			j.finish(JobFailed, err)
		}
	}()
	return j
}
