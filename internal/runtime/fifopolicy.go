package runtime

import (
	"fmt"

	"vcgraph/internal/bsp"
)

// WorklistRunner is the FIFO-worklist execution policy shared by the
// asynchronous engine and the incremental (evolving-graph) programs:
// one Driver step is one epoch of up to EpochLen updates popped from a
// deduplicating FIFO, each applied immediately and pushing its
// activations back. The Driver supplies the barrier lifecycle — fault
// detection, checkpoint cadence (EpochSaves ordering), rollback — so a
// program gets crash/drop/dup/corrupt recovery by filling in Update.
//
// The restart state is whatever the caller seeded: a full run queues
// every vertex, an incremental run only the vertices its delta
// analysis dirtied. The runner captures the seed values and queue at
// the first barrier, so a checkpoint-free rollback replays exactly
// that seed set, keeping faulted incremental runs byte-identical to
// fault-free ones.
type WorklistRunner[V any] struct {
	// Name prefixes error messages ("async", "vc: incremental sssp").
	Name string
	// Update recomputes v from current values and returns the vertices
	// to (re)activate. The returned slice is consumed before the next
	// call, so implementations may reuse a scratch buffer.
	Update func(v VertexID) []VertexID
	// Prog is consulted for the optional ValueCloner and
	// StateSnapshotter checkpoint hooks.
	Prog any
	// Values is the live value slice; rollbacks rewrite it in place.
	Values []V
	// Queue is the worklist, seeded by the caller before Run.
	Queue *FIFO
	// N is the vertex count.
	N int
	// EpochLen is the number of updates per driver step (fault
	// detection / checkpoint granularity).
	EpochLen int
	// MaxUpdates caps total updates; exceeding it returns CapErr.
	MaxUpdates int
	// CapErr is the sentinel wrapped into the cap error.
	CapErr error

	updates int
	started bool
	// col tracks the vertices popped (and therefore possibly rewritten
	// — Update writes only values[v]) since the last checkpoint frame.
	col Column[V]
	// seed is the worklist as the caller left it, replayed by a
	// checkpoint-free rollback (faults only).
	seed []VertexID
}

// Updates returns the total number of vertex updates applied.
func (p *WorklistRunner[V]) Updates() int { return p.updates }

// Quiescent implements Policy: the worklist drained.
func (p *WorklistRunner[V]) Quiescent(step, pending int) bool { return p.Queue.Len() == 0 }

// Stopped implements EarlyStopper: the previous epoch ended mid-stride
// with the worklist drained, so the run is over without another
// boundary's fault/checkpoint processing.
func (p *WorklistRunner[V]) Stopped() bool {
	return p.updates%p.EpochLen != 0 && p.Queue.Len() == 0
}

// BarrierFaults implements BarrierFaultPolicy: activation-batch faults
// fire at the epoch boundary itself. A dropped batch forces a rollback
// (the worklist cannot be reconstructed in place); a duplicated batch
// is absorbed because the FIFO deduplicates scheduled vertices.
//
// The first barrier also starts the run: the seed values and queue are
// still untouched there, and inj tells whether a rollback can happen
// at all (it is nil without faults), so the seed is kept only then.
func (p *WorklistRunner[V]) BarrierFaults(inj *Injector, step int) (lost bool) {
	if !p.started {
		p.started = true
		p.col = NewColumn(p.Prog, p.Values, inj != nil)
		if inj != nil {
			p.seed = p.Queue.Snapshot()
		}
	}
	switch inj.LaneFault(step, 0, 0) {
	case FaultDropLane:
		return true
	case FaultDupLane:
		for _, w := range p.Queue.Snapshot() {
			p.Queue.Push(w)
		}
	}
	return false
}

// RedoneUnits implements RollbackWeigher: recovery cost is counted in
// redone updates, not epochs.
func (p *WorklistRunner[V]) RedoneUnits(resumed, failed int) int {
	return (failed - resumed) * p.EpochLen
}

// Superstep implements Policy: drain up to one epoch of updates,
// applying each immediately. Updates gather from live neighbor values,
// so the engine is pull-based by construction; an epoch that starts
// with a dense worklist is marked Pulled, and its activations take the
// bulk FIFO.PushAll path (identical order and dedup to per-vertex
// pushes, with the queue bookkeeping hoisted out of the loop).
func (p *WorklistRunner[V]) Superstep(step int, ss *bsp.SuperstepStats) (int, error) {
	ss.Frontier = int64(p.Queue.Len())
	ss.Pulled = ChoosePull(DirectionAuto, true, p.Queue.Len(), p.N, 0)
	for i := 0; i < p.EpochLen; i++ {
		v, ok := p.Queue.Pop()
		if !ok {
			break
		}
		p.col.Mark(v)
		if p.updates >= p.MaxUpdates {
			return p.Queue.Len(), fmt.Errorf("%s: %w (cap %d)", p.Name, p.CapErr, p.MaxUpdates)
		}
		p.updates++
		ss.Work[0]++
		ss.Active[0]++
		acts := p.Update(v)
		ss.Sent[0] += int64(len(acts))
		p.Queue.PushAll(acts)
	}
	return p.Queue.Len(), nil
}

// Snapshot implements Policy: values plus the worklist in arrival
// order. The update count is implied by the boundary step
// (step · EpochLen), so it is not stored.
func (p *WorklistRunner[V]) Snapshot() *WorklistSnapshot[V] {
	return &WorklistSnapshot[V]{col: p.col.Full(), queue: p.Queue.Snapshot()}
}

// SnapshotDelta implements DeltaPolicy: only the values of vertices
// popped since the previous frame, plus the complete worklist (small
// on sparse tails, and required — the queue cannot be patched).
func (p *WorklistRunner[V]) SnapshotDelta() *WorklistSnapshot[V] {
	return &WorklistSnapshot[V]{col: p.col.Delta(), queue: p.Queue.Snapshot()}
}

// RestoreDelta implements DeltaPolicy: patch the popped vertices'
// values onto the chain state and replace the worklist wholesale (each
// frame carries it complete). The update count was already set by the
// base Restore from the chain's final step.
func (p *WorklistRunner[V]) RestoreDelta(snap *WorklistSnapshot[V]) {
	p.col.Patch(snap.col)
	p.Queue.Load(snap.queue)
}

// FrameBytes implements SnapshotSizer: a deterministic resident-byte
// estimate of a frame (full or delta).
func (p *WorklistRunner[V]) FrameBytes(snap *WorklistSnapshot[V]) int64 {
	return snap.col.Bytes() + int64(len(snap.queue))*SizeOf[VertexID]()
}

// Restore implements Policy: a readable checkpoint restores its values
// and worklist; a checkpoint-free rollback replays the seed state
// captured at the first barrier.
func (p *WorklistRunner[V]) Restore(snap *WorklistSnapshot[V], step int, ok bool) {
	if !ok {
		p.col.Reset()
		p.Queue.Load(p.seed)
		p.updates = 0
		return
	}
	p.col.Load(snap.col)
	p.Queue.Load(snap.queue)
	p.updates = step * p.EpochLen
}

// WorklistSnapshot is one checkpoint generation of a worklist run: the
// values (and any program-private state) and the worklist, in arrival
// order, at an epoch boundary. The queue is complete on delta frames
// too.
type WorklistSnapshot[V any] struct {
	col   ColumnFrame[V]
	queue []VertexID
}
