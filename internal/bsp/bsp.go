// Package bsp implements the two complexity metrics the paper uses to
// judge vertex-centric algorithms:
//
//   - Valiant's BSP cost model: a superstep with per-processor local
//     work w_i and message counts s_i (sent), r_i (received) costs
//     max(w, g·h, L) where w = max_i w_i and h = max_i max(s_i, r_i);
//     the time-processor product is p times the summed superstep costs.
//
//   - The BPPA (balanced, practical Pregel algorithm) properties of
//     Yan et al.: per-vertex state, compute, and message volume per
//     superstep all O(d(v)), and O(log n) supersteps.
//
// The pregel engine fills a Stats value as it runs; this package turns
// it into the paper's verdicts. Because a single run can only witness
// constants, asymptotic verdicts ("performs more work", "property
// fails") are made by comparing measurements at two input sizes: see
// MoreWork and CheckBPPA.
package bsp

import (
	"errors"
	"math"
)

// ErrSuperstepCap is the shared sentinel for a run that exceeded its
// superstep / iteration / update cap without quiescing. Every engine
// re-exports it (pregel.ErrSuperstepCap, gas.ErrIterationCap, ...), so
// errors.Is(err, bsp.ErrSuperstepCap) works across engines.
var ErrSuperstepCap = errors.New("superstep cap reached")

// SuperstepStats records the per-processor load of one superstep.
// Work/Sent/Recv are filled by the engine policy while the superstep
// runs; the measured fields below are computed once by the shared
// superstep driver at the barrier, so every engine prices supersteps
// through the same code path.
type SuperstepStats struct {
	Work []int64 // local work units per processor
	Sent []int64 // messages sent per processor
	Recv []int64 // messages received per processor
	// Active counts the units computed per processor: vertices for the
	// pregel/gas engines, block members for blockcentric, updates for
	// the async engine's epochs.
	Active []int64

	// Measured accounting, populated by the driver at the barrier:
	// MaxWork is w = max_i Work[i], MaxComm is h = max_i max(Sent[i],
	// Recv[i]), and Cost is max(w, g·h, L) under the run's cost model.
	MaxWork int64
	MaxComm int64
	Cost    float64

	// Pulled marks a superstep that ran the pull-mode message path
	// (direction-optimizing execution): broadcasts were gathered over
	// transpose spans instead of materialized through the mailbox, so
	// Sent/Recv count only the boundary messages that actually crossed
	// the wire (0 for a fully-pulled superstep).
	Pulled bool

	// Frontier is the size of the active frontier ENTERING the
	// superstep — the quantity direction optimization and the adaptive
	// planner decide on (worklist pending for pregel, active vertices
	// for gas, members of awake blocks for blockcentric, worklist depth
	// for the async engine's epochs). Active, by contrast, counts what
	// was actually computed during the superstep.
	Frontier int64
}

// NewSuperstepStats returns a SuperstepStats with per-processor slices
// sized for p processors. The four slices share one allocation (they
// are fixed-length views, never appended to), keeping the per-superstep
// fixed cost at one allocation.
func NewSuperstepStats(p int) SuperstepStats {
	buf := make([]int64, 4*p)
	return SuperstepStats{
		Work:   buf[0*p : 1*p : 1*p],
		Sent:   buf[1*p : 2*p : 2*p],
		Recv:   buf[2*p : 3*p : 3*p],
		Active: buf[3*p : 4*p : 4*p],
	}
}

// ActiveVertices returns the total units computed in this superstep.
func (s SuperstepStats) ActiveVertices() int64 {
	var n int64
	for _, a := range s.Active {
		n += a
	}
	return n
}

func maxOf(xs []int64) int64 {
	var m int64
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// W returns max_i Work[i].
func (s SuperstepStats) W() int64 { return maxOf(s.Work) }

// H returns max_i max(Sent[i], Recv[i]).
func (s SuperstepStats) H() int64 {
	hs := maxOf(s.Sent)
	if hr := maxOf(s.Recv); hr > hs {
		return hr
	}
	return hs
}

// Stats aggregates a full run of a vertex-centric algorithm.
type Stats struct {
	Workers    int
	N          int // number of vertices of the input
	Supersteps []SuperstepStats

	// Per-vertex balance evidence: running maxima over all supersteps
	// and vertices of quantity/(d(v)+1). The +1 keeps isolated vertices
	// well-defined and matches the O(d(v)) bound up to a constant.
	MaxStatePerDeg   float64
	MaxComputePerDeg float64
	MaxSentPerDeg    float64
	MaxRecvPerDeg    float64

	TotalMessages int64
	TotalWork     int64
	// InboxDeliveries counts inbox placements: messages that still
	// exist after combiner reduction and occupy an inbox slot. Without
	// a combiner every raw message is placed, so InboxDeliveries ==
	// TotalMessages; with one, each receiving vertex gets exactly one
	// placement per superstep. TotalMessages - InboxDeliveries is the
	// message volume the combiner saved (the shrinkage of the BSP
	// model's h before delivery). The counter was previously named
	// CombinedDeliveries, which misread as "number of combine calls".
	InboxDeliveries int64

	// MeasuredTime is T(n) as measured by the shared superstep driver:
	// the running sum of the per-superstep Cost fields. For a run priced
	// under DefaultModel it equals DefaultModel.Time exactly (superstep
	// costs are integers, so float64 summation is exact and
	// order-independent at these magnitudes).
	MeasuredTime float64

	// Memory observability, stamped by the shared driver from
	// runtime.ReadMemStats brackets around the run. HeapInuseDelta is
	// the change in live heap bytes (HeapInuse) — negative when a
	// collection ran mid-run — and TotalAllocDelta the cumulative bytes
	// the run allocated. Comparative evidence for the memory-lean
	// substrate (packed CSR, bit-packed state): identical runs on the
	// two representations differ only here, never in Supersteps.
	HeapInuseDelta  int64
	TotalAllocDelta uint64

	// Recovery reports the fault-tolerance cost of the run.
	Recovery Recovery
}

// MeasuredTPP returns the time-processor product P(n)·T(n) from the
// driver-measured per-superstep costs. This is the single accounting
// path cmd/table1 and cmd/ablations consume.
func (s *Stats) MeasuredTPP() float64 {
	return float64(s.Workers) * s.MeasuredTime
}

// Recovery aggregates what checkpointing and failure recovery cost a
// run: redone supersteps are real work a production cluster re-executes
// after a rollback, and their count against the checkpoint interval is
// the classic recovery-cost trade-off (frequent checkpoints cost
// snapshot time, sparse ones cost redone work).
type Recovery struct {
	// CheckpointsSaved counts snapshots written at checkpoint barriers.
	CheckpointsSaved int
	// Rollbacks counts recoveries performed, whether triggered by a
	// worker crash or by a lost (dropped) message batch.
	Rollbacks int
	// RedoneSupersteps counts supersteps re-executed after rollbacks
	// (vertex updates, for the asynchronous engine). The redone work
	// also stays in the Supersteps record, as it would on a cluster.
	RedoneSupersteps int
	// CorruptedCheckpoints counts snapshots that failed validation
	// when a recovery tried to read them; each forces a fallback to
	// the previous checkpoint generation or a fresh restart.
	CorruptedCheckpoints int
	// DeltaCheckpointsSaved counts the subset of CheckpointsSaved
	// stored as dirty-set delta frames rather than full snapshots
	// (Config.FullSnapshotEvery with a delta-capable engine).
	DeltaCheckpointsSaved int
	// InvalidatedCheckpoints counts readable frames discarded during
	// recovery because a frame they depend on — the base full snapshot
	// or an earlier delta in their chain — failed validation. They are
	// collateral damage of CorruptedCheckpoints, not corrupt themselves.
	InvalidatedCheckpoints int
	// CheckpointBytesFull / CheckpointBytesDelta split the estimated
	// resident bytes of the saved frames by kind. The estimate is
	// deterministic (element sizes times element counts, plus program
	// state whose snapshot reports its size; see
	// runtime.ColumnFrame.Bytes), so the full/delta ratio is comparable
	// across runs — the compaction win delta checkpointing exists for.
	CheckpointBytesFull  int64
	CheckpointBytesDelta int64
	// DroppedLanes counts message batches lost in transit; each forces
	// a rollback.
	DroppedLanes int
	// DuplicatedLanes counts redelivered message batches detected via
	// their sequence numbers and discarded (or absorbed, where
	// delivery is idempotent) without affecting results.
	DuplicatedLanes int
}

// Faulted reports whether any injected fault actually fired.
func (r Recovery) Faulted() bool {
	return r.Rollbacks > 0 || r.CorruptedCheckpoints > 0 || r.DroppedLanes > 0 || r.DuplicatedLanes > 0
}

// Add accumulates another run's recovery costs, for multi-stage
// pipelines that merge per-stage stats.
func (r *Recovery) Add(o Recovery) {
	r.CheckpointsSaved += o.CheckpointsSaved
	r.Rollbacks += o.Rollbacks
	r.RedoneSupersteps += o.RedoneSupersteps
	r.CorruptedCheckpoints += o.CorruptedCheckpoints
	r.DeltaCheckpointsSaved += o.DeltaCheckpointsSaved
	r.InvalidatedCheckpoints += o.InvalidatedCheckpoints
	r.CheckpointBytesFull += o.CheckpointBytesFull
	r.CheckpointBytesDelta += o.CheckpointBytesDelta
	r.DroppedLanes += o.DroppedLanes
	r.DuplicatedLanes += o.DuplicatedLanes
}

// NumSupersteps returns the number of executed supersteps.
func (s *Stats) NumSupersteps() int { return len(s.Supersteps) }

// PulledSupersteps returns how many supersteps ran the pull-mode
// message path.
func (s *Stats) PulledSupersteps() int {
	n := 0
	for _, ss := range s.Supersteps {
		if ss.Pulled {
			n++
		}
	}
	return n
}

// CostModel holds the BSP machine parameters. The paper's analysis
// takes g = O(1); DefaultModel matches that with unit latency.
type CostModel struct {
	G float64 // bandwidth parameter: an h-relation takes g·h time
	L float64 // synchronization periodicity (minimum superstep cost)
}

// DefaultModel is the paper's g = O(1) setting.
var DefaultModel = CostModel{G: 1, L: 1}

// SuperstepTime returns max(w, g·h, L) for one superstep.
func (c CostModel) SuperstepTime(s SuperstepStats) float64 {
	t := float64(s.W())
	if gh := c.G * float64(s.H()); gh > t {
		t = gh
	}
	if c.L > t {
		t = c.L
	}
	return t
}

// Time returns T(n): the summed superstep costs of the run.
func (c CostModel) Time(st *Stats) float64 {
	var t float64
	for _, s := range st.Supersteps {
		t += c.SuperstepTime(s)
	}
	return t
}

// TimeProcessor returns the time-processor product P(n)·T(n).
func (c CostModel) TimeProcessor(st *Stats) float64 {
	return float64(st.Workers) * c.Time(st)
}

// Measurement pairs a vertex-centric run with its sequential baseline
// at one input size.
type Measurement struct {
	N       int     // input size parameter (vertices)
	M       int     // edges
	PT      float64 // time-processor product of the vertex-centric run
	SeqOps  float64 // operation count of the sequential baseline
	VCStats *Stats
}

// Ratio returns PT/SeqOps, the work overhead factor at this size.
func (m Measurement) Ratio() float64 {
	if m.SeqOps == 0 {
		return math.Inf(1)
	}
	return m.PT / m.SeqOps
}

// GrowthSlack is the multiplicative tolerance used when deciding
// whether a ratio "grows" between two input sizes. Constant-factor
// overheads fluctuate below this; genuine extra log n / δ / n factors
// exceed it comfortably once the size quadruples.
const GrowthSlack = 1.45

// MoreWork reports the paper's "More Work?" verdict: whether the
// vertex-centric work PT grows asymptotically faster than the
// sequential baseline, judged by comparing the overhead ratio at a
// small and a large input size.
func MoreWork(small, large Measurement) bool {
	rs, rl := small.Ratio(), large.Ratio()
	if math.IsInf(rs, 1) || math.IsInf(rl, 1) {
		return rl > rs
	}
	return rl > rs*GrowthSlack
}

// BPPAVerdict is the result of checking the four BPPA properties.
type BPPAVerdict struct {
	P1Space      bool // per-vertex state O(d(v))
	P2Compute    bool // per-vertex compute per superstep O(d(v))
	P3Messages   bool // per-vertex messages per superstep O(d(v))
	P4Supersteps bool // O(log n) supersteps

	// Evidence at the large size (ratios relative to d(v)+1, and the
	// superstep counts at both sizes).
	StateRatio, ComputeRatio, SentRatio, RecvRatio float64
	SuperstepsSmall, SuperstepsLarge               int
}

// OK reports whether all four properties hold.
func (v BPPAVerdict) OK() bool {
	return v.P1Space && v.P2Compute && v.P3Messages && v.P4Supersteps
}

func grows(small, large float64) bool {
	if small <= 0 {
		small = 1
	}
	return large > small*GrowthSlack
}

// CheckBPPA evaluates the four BPPA properties by comparing the
// per-vertex balance evidence of the same algorithm run at a small and
// a large input size. A property holds when its witness ratio does not
// grow with input size (up to GrowthSlack); P4 holds when the superstep
// count grows no faster than log n.
func CheckBPPA(small, large *Stats) BPPAVerdict {
	v := BPPAVerdict{
		StateRatio:      large.MaxStatePerDeg,
		ComputeRatio:    large.MaxComputePerDeg,
		SentRatio:       large.MaxSentPerDeg,
		RecvRatio:       large.MaxRecvPerDeg,
		SuperstepsSmall: small.NumSupersteps(),
		SuperstepsLarge: large.NumSupersteps(),
	}
	v.P1Space = !grows(small.MaxStatePerDeg, large.MaxStatePerDeg)
	v.P2Compute = !grows(small.MaxComputePerDeg, large.MaxComputePerDeg)
	v.P3Messages = !grows(small.MaxSentPerDeg, large.MaxSentPerDeg) &&
		!grows(small.MaxRecvPerDeg, large.MaxRecvPerDeg)

	// P4: supersteps(n) = O(log n) iff the count grows at most like
	// log n. Allowing the same multiplicative slack on the log-scaled
	// growth separates Θ(log n) cleanly from Θ(n^c) and Θ(δ).
	logRatio := math.Log2(float64(large.N)+2) / math.Log2(float64(small.N)+2)
	ss, sl := float64(v.SuperstepsSmall), float64(v.SuperstepsLarge)
	if ss < 1 {
		ss = 1
	}
	v.P4Supersteps = sl <= ss*logRatio*GrowthSlack
	return v
}
