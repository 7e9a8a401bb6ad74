package runtime

import (
	"context"
	"errors"
	"fmt"
	goruntime "runtime"

	"vcgraph/internal/bsp"
)

// ErrHandoff is the sentinel returned by Driver.Run when the configured
// Replan hook requested a live engine handoff at a superstep barrier.
// The run stops with the barrier state consistent (all messages of the
// previous superstep delivered, no rollback pending); the caller
// harvests the engine's partial values and resumes them under a fresh
// engine prepare. Match with errors.Is.
var ErrHandoff = errors.New("handoff requested at superstep barrier")

// Driver is the shared superstep kernel under all four engines. It owns
// the full per-barrier lifecycle — worker-pool dispatch, fault-plan
// firing (crashes at barriers, lost message batches), checkpoint cadence
// and rollback, cap and halting — and the measured cost accounting: one
// instrumented path computes each superstep's w (max local work over
// workers), h (max messages sent/received per partition), and
// max(w, g·h, L) into bsp.SuperstepStats, so every engine reports the
// time-processor product identically.
//
// An engine is a Policy: it fills the per-worker Work/Sent/Recv/Active
// slices while a superstep runs and defines what quiescence, a
// snapshot, and a restore mean for its model. Optional extensions
// (MasterPolicy, SerialFinishPolicy, BarrierFaultPolicy, EarlyStopper,
// RollbackWeigher) are discovered by type assertion.
type Policy[S any] interface {
	// Quiescent reports whether the computation has converged at the
	// barrier entering step, after fault detection and rollback.
	// pending is the superstep's in-flight message count as returned by
	// the previous Superstep (or restored from a checkpoint).
	Quiescent(step, pending int) bool
	// Superstep executes one superstep's phases, charging per-worker
	// load into ss, and returns the number of messages pending for the
	// next superstep. A policy whose delivery loses a message batch in
	// transit must call Driver.LoseBatch; a policy that enforces its
	// own cap returns a non-nil error, which aborts the run verbatim.
	Superstep(step int, ss *bsp.SuperstepStats) (pending int, err error)
	// Snapshot deep-copies the barrier state for a checkpoint.
	Snapshot() S
	// Restore reloads a snapshot taken at barrier step (ok), or
	// reinitializes the computation from scratch (!ok, step 0).
	Restore(snap S, step int, ok bool)
}

// MasterPolicy is an optional Policy extension: BeforeSuperstep runs
// single-threaded before each superstep, after fault detection but
// before the quiescence check (pregel's master compute). Returning
// halt=true terminates the run at this barrier.
type MasterPolicy interface {
	BeforeSuperstep(step, pending int) (halt bool)
}

// SerialFinishPolicy is an optional Policy extension for "finishing
// computations serially": after a clean superstep the driver offers the
// policy the chance to complete the run in one sequential step.
// Returning done=true ends the run; the driver records one final
// superstep charging work (and active units) to worker 0.
type SerialFinishPolicy interface {
	FinishSerially(pending int) (work, active int64, done bool)
}

// BarrierFaultPolicy is an optional Policy extension for engines whose
// message-lane faults fire at the barrier itself rather than inside a
// delivery phase (the async engine's epoch boundaries): BarrierFaults
// runs before crash detection and reports whether a batch was lost.
type BarrierFaultPolicy interface {
	BarrierFaults(inj *Injector, step int) (lost bool)
}

// EarlyStopper is an optional Policy extension checked at the top of
// each barrier, before fault detection: a policy whose previous
// superstep ended mid-stride (the async engine draining its worklist
// partway through an epoch) returns true to end the run without
// another barrier's fault/checkpoint processing.
type EarlyStopper interface {
	Stopped() bool
}

// RollbackWeigher is an optional Policy extension that converts redone
// barriers into the engine's work unit for Recovery.RedoneSupersteps
// (the async engine counts redone updates, not epochs). Without it the
// driver charges failed - resumed.
type RollbackWeigher interface {
	RedoneUnits(resumed, failed int) int
}

// DeltaPolicy is an optional Policy extension enabling delta
// checkpoints. SnapshotDelta deep-copies only the state dirtied since
// the previous snapshot (full or delta) into a patch frame; both
// Snapshot and SnapshotDelta reset the policy's dirty tracking, so each
// frame patches exactly the one before it. RestoreDelta applies a patch
// on top of already-restored state: the driver rebuilds a generation by
// calling Restore with the chain's base full frame, then RestoreDelta
// for each dependent delta frame in save order.
//
// The driver only takes delta snapshots between full ones
// (RunEnv.FullSnapshotEvery) and forces the save after any
// rollback to be full — a restore rewrites state wholesale, so the
// dirty set no longer describes a patch against any stored frame.
type DeltaPolicy[S any] interface {
	SnapshotDelta() S
	RestoreDelta(patch S)
}

// SnapshotSizer is an optional Policy extension reporting the estimated
// resident bytes of a checkpoint frame (full or delta), feeding
// Recovery.CheckpointBytesFull/Delta. Estimates must be deterministic —
// they are benchmarked ratios, not allocator truth; opaque
// program-private state may be excluded as long as full and delta
// frames exclude it alike.
type SnapshotSizer[S any] interface {
	FrameBytes(snap S) int64
}

// RunEnv is the run environment every engine shares: how a run is
// checkpointed, fault-injected, cancelled, and bound to a job. Engines
// differ in how they execute a superstep, not in these, so each engine
// config embeds RunEnv and hands it to the Driver unchanged. A "step"
// below is the engine's barrier unit: a superstep (pregel,
// block-centric), an iteration (gas), or an epoch of updates (the
// async engine and the incremental worklist drains).
type RunEnv struct {
	// CheckpointEvery > 0 snapshots the barrier state every k steps for
	// rollback recovery. The epoch-based engines instead make an epoch
	// k updates long (default 64) and checkpoint at every epoch
	// boundary, where faults are also detected.
	CheckpointEvery int
	// FullSnapshotEvery > 1 stores only every Nth checkpoint as a full
	// snapshot when the engine supports deltas (DeltaPolicy); the saves
	// in between are dirty-set delta frames patching the previous one.
	// 0 or 1 keeps every checkpoint full.
	FullSnapshotEvery int
	// Faults schedules deterministic fault injection (nil = none):
	// worker crashes at barriers, dropped or duplicated message
	// batches, and corrupted checkpoints, all reproducible from the
	// plan's seed. A crash or a lost batch rolls the run back to its
	// newest readable checkpoint (or a fresh start); FaultEvent.Step
	// counts the engine's steps.
	Faults *FaultPlan
	// Ctx, when non-nil, gates every barrier: once it is cancelled or
	// past its deadline the run aborts at the next barrier — before
	// fault firing and rollback, so an abort never replays work — and
	// Run returns the context's cause. nil = never aborted.
	Ctx context.Context
	// Job, when non-nil, binds the run to a scheduler-admitted job
	// handle: the run executes on the job's lease, under the job's
	// context (overriding Ctx), and publishes each superstep record to
	// the handle for streaming. Engines take their worker count from
	// Job.Workers(), so the job's admitted share must match it: 1 for
	// the sequential engines.
	Job *Job
}

// Context is the context the run executes under: the job's when the
// run is bound to one, else Ctx, else context.Background().
func (e RunEnv) Context() context.Context {
	if e.Job != nil {
		return e.Job.Context()
	}
	if e.Ctx != nil {
		return e.Ctx
	}
	return context.Background()
}

// DriverConfig parameterizes a Driver run. Supersteps are priced with
// bsp.DefaultModel.
type DriverConfig struct {
	RunEnv
	// Name prefixes the cap error ("pregel: superstep cap reached ...").
	Name string
	// Workers sizes the pool and the per-superstep stat slices.
	Workers int
	// MaxSteps caps the run; exceeding it returns CapErr wrapped.
	MaxSteps int
	// CapErr is the engine's sentinel (normally bsp.ErrSuperstepCap).
	CapErr error
	// EpochSaves selects the async engine's checkpoint ordering: the
	// snapshot is taken at the top of every barrier, after fault
	// detection — instead of at the end of every k-th superstep, before
	// the next barrier's fault check.
	EpochSaves bool
	// Pool, when non-nil, is a caller-owned shared worker pool: the
	// driver leases Workers virtual workers from it for the run instead
	// of building (and tearing down) a private pool. The pool outlives
	// the run and may serve other runs concurrently.
	Pool *Pool
	// Replan, when non-nil, is consulted at every superstep barrier
	// after fault detection, rollback, and the quiescence check — the
	// point where the engine's state is complete and consistent.
	// Returning true stops the run with ErrHandoff (wrapped): the
	// adaptive plan layer then exports the engine's values and resumes
	// the computation under a different engine or mode. pending is the
	// in-flight message count entering the barrier, as for Quiescent.
	Replan func(step, pending int) bool
}

// Driver runs a Policy to termination. One Driver serves one Run.
type Driver[S any] struct {
	cfg   DriverConfig
	pol   Policy[S]
	stats *bsp.Stats

	lease *Lease
	inj   *Injector
	cks   Checkpoints[ckFrame[S]]
	lost  bool
	step  int
	// sinceFull counts delta frames saved since the last full one;
	// forceFull pins the next save to a full frame after a rollback
	// (the dirty set no longer patches any stored frame).
	sinceFull int
	forceFull bool
	// scratch holds the superstep being measured; a field rather than a
	// local so passing its address through the Policy interface does not
	// heap-allocate a struct per superstep.
	scratch bsp.SuperstepStats
}

// ckFrame pairs a policy snapshot with the driver-owned pending count,
// so engine snapshot types carry only engine state.
type ckFrame[S any] struct {
	snap    S
	pending int
}

// NewDriver builds a driver for pol, charging instrumentation into
// stats.
func NewDriver[S any](pol Policy[S], stats *bsp.Stats, cfg DriverConfig) *Driver[S] {
	return &Driver[S]{cfg: cfg, pol: pol, stats: stats}
}

// Lease returns the run's worker lease (valid during Run): the view
// through which the policy dispatches its parallel phases.
func (d *Driver[S]) Lease() *Lease { return d.lease }

// Injector returns the run's fault injector (nil without faults; all
// Injector methods are nil-safe).
func (d *Driver[S]) Injector() *Injector { return d.inj }

// LoseBatch marks the running superstep's barrier state incomplete: a
// message batch was dropped in transit. The driver skips the
// checkpoint and serial finish for this step and rolls back at the next
// barrier. Call it only from single-threaded policy code (between pool
// phases), not from pool workers.
func (d *Driver[S]) LoseBatch() { d.lost = true }

// Run executes the policy to termination: quiescence, a master halt, a
// serial finish, the step cap, or a policy error. It returns the number
// of steps executed (the barrier index at which the run stopped).
func (d *Driver[S]) Run() (steps int, err error) {
	// Memory observability: bracket the run with ReadMemStats so every
	// engine reports how much heap the run grew and allocated — the
	// comparative counters behind the memory-lean substrate.
	var m0 goruntime.MemStats
	goruntime.ReadMemStats(&m0)
	defer func() {
		var m1 goruntime.MemStats
		goruntime.ReadMemStats(&m1)
		d.stats.HeapInuseDelta += int64(m1.HeapInuse) - int64(m0.HeapInuse)
		d.stats.TotalAllocDelta += m1.TotalAlloc - m0.TotalAlloc
	}()
	ctx := d.cfg.Context()
	// Worker substrate, by preference: the job's admitted lease, a
	// lease on a caller-shared pool, or — the legacy fallback — a
	// private pool built for this run alone.
	switch {
	case d.cfg.Job != nil:
		l := d.cfg.Job.leaseHandle()
		if l == nil {
			panic("runtime: Driver run under a job with no lease (jobs must come from Scheduler.Submit)")
		}
		if l.Workers() != d.cfg.Workers {
			panic(fmt.Sprintf("runtime: job lease share %d != driver workers %d", l.Workers(), d.cfg.Workers))
		}
		d.lease = l
	case d.cfg.Pool != nil:
		d.lease = d.cfg.Pool.Lease(d.cfg.Workers)
	default:
		pool := NewPool(d.cfg.Workers)
		defer pool.Close()
		d.lease = pool.Lease(d.cfg.Workers)
	}
	defer func() { d.lease = nil }()
	d.inj = d.cfg.Faults.NewInjector(d.cfg.Workers)

	master, hasMaster := d.pol.(MasterPolicy)
	finisher, hasFinisher := d.pol.(SerialFinishPolicy)
	barrier, hasBarrier := d.pol.(BarrierFaultPolicy)
	stopper, hasStopper := d.pol.(EarlyStopper)

	pending := 0
	capHit := false
	aborted := false
	handoff := false
	var polErr error
	for d.step = 0; ; d.step++ {
		// Cancellation wins over everything at the barrier: an aborted
		// run fires no faults, takes no checkpoint, and never rolls
		// back — the caller asked it to stop, not to recover.
		if ctx.Err() != nil {
			aborted = true
			break
		}
		if d.step >= d.cfg.MaxSteps {
			capHit = true
			break
		}
		if hasStopper && stopper.Stopped() {
			break
		}
		// The barrier doubles as the failure-detection point: a crashed
		// worker or a batch lost in the previous delivery rolls the run
		// back to its newest readable checkpoint before the quiescence
		// check (a lost batch can masquerade as quiescence).
		if hasBarrier && barrier.BarrierFaults(d.inj, d.step) {
			d.lost = true
		}
		if _, crashed := d.inj.CrashAt(d.step); crashed || d.lost {
			d.lost = false
			d.step, pending = d.rollback()
		}
		if d.cfg.EpochSaves && d.cfg.CheckpointEvery > 0 && d.step > 0 {
			d.save(d.step, pending)
		}
		if hasMaster && master.BeforeSuperstep(d.step, pending) {
			break
		}
		if d.pol.Quiescent(d.step, pending) {
			break
		}
		// The handoff point: past fault detection and rollback (the
		// barrier state is consistent) and past the quiescence check (a
		// finished run never switches engines).
		if d.cfg.Replan != nil && d.cfg.Replan(d.step, pending) {
			handoff = true
			break
		}
		pending, polErr = d.runSuperstep()
		if polErr != nil {
			break
		}
		if d.lost {
			// The barrier state is incomplete: neither checkpointed nor
			// finished serially. Roll back at the top of the next step.
			continue
		}
		if k := d.cfg.CheckpointEvery; !d.cfg.EpochSaves && k > 0 && (d.step+1)%k == 0 {
			d.save(d.step+1, pending)
		}
		if hasFinisher {
			if work, active, done := finisher.FinishSerially(pending); done {
				d.recordSerialStep(work, active)
				d.step++ // count the serial step
				break
			}
		}
	}

	if d.inj != nil {
		c := d.inj.Counts()
		d.stats.Recovery.DroppedLanes = c.DroppedLanes
		d.stats.Recovery.DuplicatedLanes = c.DuplicatedLanes
	}
	if polErr != nil {
		return d.step, polErr
	}
	if handoff {
		return d.step, fmt.Errorf("%s: %w (barrier %d)", d.cfg.Name, ErrHandoff, d.step)
	}
	if aborted {
		return d.step, fmt.Errorf("%s: %w", d.cfg.Name, context.Cause(ctx))
	}
	if capHit {
		return d.step, fmt.Errorf("%s: %w (cap %d)", d.cfg.Name, d.cfg.CapErr, d.cfg.MaxSteps)
	}
	return d.step, nil
}

// runSuperstep executes one superstep through the policy and finalizes
// the measured accounting at the barrier: w, h, and max(w, g·h, L) per
// superstep, plus the run totals.
func (d *Driver[S]) runSuperstep() (int, error) {
	d.scratch = bsp.NewSuperstepStats(d.cfg.Workers)
	pending, err := d.pol.Superstep(d.step, &d.scratch)
	d.record(d.scratch)
	return pending, err
}

// recordSerialStep appends the one single-worker superstep a serial
// finish is charged as.
func (d *Driver[S]) recordSerialStep(work, active int64) {
	ss := bsp.NewSuperstepStats(d.cfg.Workers)
	ss.Work[0] = work
	ss.Active[0] = active
	d.record(ss)
}

func (d *Driver[S]) record(ss bsp.SuperstepStats) {
	ss.MaxWork = ss.W()
	ss.MaxComm = ss.H()
	ss.Cost = bsp.DefaultModel.SuperstepTime(ss)
	for w := range ss.Work {
		d.stats.TotalWork += ss.Work[w]
		d.stats.TotalMessages += ss.Sent[w]
	}
	d.stats.MeasuredTime += ss.Cost
	d.stats.Supersteps = append(d.stats.Supersteps, ss)
	if d.cfg.Job != nil {
		d.cfg.Job.observe(ss)
	}
}

// save checkpoints the barrier state entering step — a full snapshot,
// or a dirty-set delta against the previous frame when the policy
// supports deltas and the chain is not due for a full one. A scheduled
// FaultCorruptCheckpoint damages the frame silently; the store only
// discovers it when a recovery reads the frame's chain back.
func (d *Driver[S]) save(step, pending int) {
	dp, deltaCapable := d.pol.(DeltaPolicy[S])
	full := !deltaCapable || d.cfg.FullSnapshotEvery <= 1 ||
		d.forceFull || d.cks.Saved() == 0 ||
		d.sinceFull >= d.cfg.FullSnapshotEvery-1
	var snap S
	if full {
		snap = d.pol.Snapshot()
		d.sinceFull = 0
		d.forceFull = false
	} else {
		snap = dp.SnapshotDelta()
		d.sinceFull++
		d.stats.Recovery.DeltaCheckpointsSaved++
	}
	d.cks.Save(step, ckFrame[S]{snap: snap, pending: pending}, full, d.inj.CorruptSave(step))
	d.stats.Recovery.CheckpointsSaved++
	if sizer, sized := d.pol.(SnapshotSizer[S]); sized {
		if b := sizer.FrameBytes(snap); full {
			d.stats.Recovery.CheckpointBytesFull += b
		} else {
			d.stats.Recovery.CheckpointBytesDelta += b
		}
	}
}

// rollback restores the newest reconstructible generation (base full
// frame plus its delta chain, or a fresh start) and returns the barrier
// position to resume from.
func (d *Driver[S]) rollback() (resumed, pending int) {
	d.stats.Recovery.Rollbacks++
	chain, step, skipped, invalidated, ok := d.cks.Recover()
	d.stats.Recovery.CorruptedCheckpoints += skipped
	d.stats.Recovery.InvalidatedCheckpoints += invalidated
	d.forceFull = true
	if !ok {
		var zero S
		d.pol.Restore(zero, 0, false)
		step, pending = 0, 0
	} else {
		d.pol.Restore(chain[0].snap, step, true)
		if len(chain) > 1 {
			dp := d.pol.(DeltaPolicy[S]) // delta frames only exist for delta policies
			for _, f := range chain[1:] {
				dp.RestoreDelta(f.snap)
			}
		}
		pending = chain[len(chain)-1].pending
	}
	redone := d.step - step
	if w, isWeigher := d.pol.(RollbackWeigher); isWeigher {
		redone = w.RedoneUnits(step, d.step)
	}
	d.stats.Recovery.RedoneSupersteps += redone
	return step, pending
}
