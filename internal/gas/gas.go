// Package gas implements a minimal gather-apply-scatter engine in the
// style of PowerGraph, the third programming model the paper's §1
// surveys next to synchronous vertex-centric (Pregel) and
// subgraph-centric (Giraph++). Computation is pull-based: an active
// vertex GATHERs an associative summary over its in-neighbors' values,
// APPLYs it to its own value, and — when the value changed — SCATTERs
// activation to its out-neighbors. There are no messages; each
// iteration reads a consistent snapshot of the previous iteration's
// values (double buffering), so the engine is deterministic and
// race-free by construction.
package gas

import (
	"math"

	"vcgraph/internal/bsp"
	"vcgraph/internal/graph"
	rt "vcgraph/internal/runtime"
)

// VertexID aliases graph.VertexID.
type VertexID = graph.VertexID

// Program is a GAS vertex program over value type V and gather type G.
type Program[V, G any] interface {
	// Init seeds vertex values; every vertex starts active.
	Init(g *graph.Graph, id VertexID) V
	// Gather produces u's contribution to v along edge (u -> v) of
	// weight w, given u's value from the previous iteration. The engine
	// feeds it straight from CSR transpose spans, so no Edge value is
	// materialized on the gather path.
	Gather(u VertexID, w float64, uVal V) G
	// Zero is the identity of Sum.
	Zero() G
	// Sum combines gather contributions (associative, commutative).
	Sum(a, b G) G
	// Apply folds the gathered total into v's value and reports whether
	// the value changed enough to scatter.
	Apply(v *V, total G) bool
}

// Config controls a GAS run.
type Config struct {
	Workers       int // default 4
	MaxIterations int // default 10·(n+64)
	// Partition assigns vertices to workers; nil means the hash
	// (round-robin) assignment. Partitioning changes per-worker load
	// (and hence the measured BSP superstep costs) but never results:
	// gathers read a double-buffered snapshot, so vertex placement is
	// invisible to the values.
	Partition rt.Partitioner
	// Mode selects the scatter direction (gathers always pull): push
	// materializes per-edge wake buffers; pull has changed vertices
	// mark a broadcast bit that destinations scan over their transpose
	// spans — zero scatter traffic, so dense iterations price h = 0;
	// auto (the default) pulls iterations whose active set is dense.
	// The activation set is identical either way (v wakes iff some
	// in-neighbor changed), so results never depend on the mode.
	Mode rt.DirectionMode
	// PullThreshold overrides the auto-mode active-set density
	// threshold (fraction of n; <= 0 means rt.DefaultPullThreshold).
	PullThreshold float64
	// Snapshot, when non-nil, is an already-pinned CSR generation the
	// engine must run against instead of pinning the graph's current
	// one (the adaptive plan layer re-prepares engines mid-job; see
	// graph.PinSnapshot).
	Snapshot *graph.CSR
	// Replan, when non-nil, is consulted at every iteration barrier;
	// returning true aborts the run with runtime.ErrHandoff and the
	// values at the barrier (see runtime.DriverConfig.Replan).
	Replan func(step, pending int) bool
	// Pool, when non-nil, is a shared worker pool to lease workers from
	// instead of building a private pool for the run.
	Pool *rt.Pool
	// RunEnv carries the checkpoint cadence, fault plan, cancellation
	// and job binding (see runtime.RunEnv). A checkpoint covers values
	// and the active set; a delta frame carries just the values the
	// iteration applied (only active vertices can change under double
	// buffering). A dropped scatter batch (one worker's wake buffer)
	// forces a rollback; a duplicated one is absorbed, because
	// activation delivery is a set union. Under a Job, Workers is taken
	// from the job's lease.
	rt.RunEnv
}

// ErrIterationCap reports a run exceeding Config.MaxIterations. It
// aliases bsp.ErrSuperstepCap, the sentinel shared by every engine, so
// errors.Is works across engines.
var ErrIterationCap = bsp.ErrSuperstepCap

// Result of a GAS run.
type Result[V any] struct {
	Values     []V
	Iterations int
	Stats      *bsp.Stats // Work = gather ops; Sent/Recv = activations
}

// Preparer is an optional Program extension: PrepareGAS runs once at
// engine construction with the run's pinned CSR snapshot — the place
// to precompute graph-derived tables (degrees) so the run phase never
// reads the mutable graph.
type Preparer interface {
	PrepareGAS(csr *graph.CSR)
}

// Stepper is an optional Program extension: BeforeStep runs
// single-threaded at the top of every iteration with the global
// iteration index. Programs whose Apply semantics depend on the global
// step (the adaptive plan layer's fixed-K synchronous PageRank, which
// must stop after exactly `remaining` folds) implement it to observe
// the step without threading it through Gather/Apply.
type Stepper interface {
	BeforeStep(step int)
}

// Prepare builds the engine that executes prog on g to quiescence —
// pinning the CSR snapshot, partitioning, and seeding every vertex
// value — and returns the run. The graph must be directed with
// in-adjacency built, or undirected (in = out). The iteration
// lifecycle — dispatch, fault firing, checkpoint cadence, rollback,
// halting, cost accounting — is owned by the shared runtime.Driver;
// this package contributes the gather/apply/scatter policy. Every read
// of the mutable graph happens inside Prepare; the returned closure
// touches only the snapshot and engine-private state, so a serving
// layer can construct jobs under a graph read lock and execute them
// lock-free while writers mutate and republish.
func Prepare[V, G any](g *graph.Graph, prog Program[V, G], cfg Config) func() (*Result[V], error) {
	if cfg.Job != nil {
		cfg.Workers = cfg.Job.Workers()
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	csr := cfg.Snapshot
	if csr == nil {
		csr = g.Pin()
	} else {
		g.PinSnapshot(csr)
	}
	csr.EnsureIn() // pull model gathers over the transpose
	n := csr.N()
	if cfg.MaxIterations <= 0 {
		cfg.MaxIterations = 10 * (n + 64)
	}
	var owner []int32
	if cfg.Partition != nil {
		owner = cfg.Partition(g, cfg.Workers)
	} else {
		// The default hash partition sizes from the pinned snapshot, not
		// the live graph, which may have grown past it.
		owner = rt.PartitionHashN(n, cfg.Workers)
	}
	p := &policy[V, G]{
		g:          g,
		prog:       prog,
		cfg:        cfg,
		csr:        csr,
		verts:      rt.GroupByOwner("gas", owner, cfg.Workers),
		n:          n,
		next:       make([]V, n),
		active:     make([]bool, n),
		nextActive: make([]bool, n),
		wake:       make([][]VertexID, cfg.Workers),
		scratch:    rt.GetScratches(cfg.Workers),
	}
	if cfg.Mode != rt.DirectionPush {
		p.bcast = rt.NewBroadcasts[struct{}](n)
		p.wakeCount = make([]int64, cfg.Workers)
	}
	if prep, ok := any(prog).(Preparer); ok {
		prep.PrepareGAS(csr)
	}
	cur := make([]V, n)
	for v := 0; v < n; v++ {
		cur[v] = prog.Init(g, VertexID(v))
	}
	p.col = rt.NewColumn(prog, cur, cfg.Faults != nil)
	for i := range p.active {
		p.active[i] = true
	}
	p.activeCount = n // O(1) quiescence check instead of an O(n) scan

	stats := &bsp.Stats{Workers: cfg.Workers, N: n}
	p.driver = rt.NewDriver[*gasSnapshot[V]](p, stats, rt.DriverConfig{
		Name:     "gas",
		Workers:  cfg.Workers,
		MaxSteps: cfg.MaxIterations,
		CapErr:   ErrIterationCap,
		RunEnv:   cfg.RunEnv,
		Pool:     cfg.Pool,
		Replan:   cfg.Replan,
	})
	return func() (*Result[V], error) {
		defer g.Unpin(csr)
		defer rt.PutScratches(p.scratch)
		iters, err := p.driver.Run()
		return &Result[V]{Values: p.col.Values, Iterations: iters, Stats: stats}, err
	}
}

// policy is the GAS engine as a runtime.Policy: double-buffered values,
// an active set maintained by scatter-side wake buffers, and
// partitioned vertex-to-worker assignment (hash by default, matching
// the historical strided schedule).
type policy[V, G any] struct {
	g      *graph.Graph
	prog   Program[V, G]
	cfg    Config
	csr    *graph.CSR
	verts  [][]VertexID // worker -> owned vertices, ascending
	n      int
	driver *rt.Driver[*gasSnapshot[V]]

	// col holds the current values (double-buffered against next) and
	// their checkpoint dirty set. Under double buffering only vertices
	// that ran Apply can differ (everyone else's next is a verbatim
	// copy), so the iteration's active set is exactly the write set.
	col                rt.Column[V]
	next               []V
	active, nextActive []bool
	activeCount        int
	wake               [][]VertexID     // per-worker scatter buffers, reused
	scratch            []*graph.Scratch // pooled per-worker span-decode buffers (packed snapshots)

	// Pull-mode scatter (Mode pull/auto): changed vertices mark their
	// broadcast bit; the activation pass scans transpose spans for
	// marked in-neighbors instead of merging wake buffers.
	bcast     *rt.Broadcasts[struct{}]
	wakeCount []int64 // per-worker activation counts for the pull pass
}

// Quiescent implements runtime.Policy.
func (p *policy[V, G]) Quiescent(step, pending int) bool { return p.activeCount == 0 }

// Superstep implements runtime.Policy: one gather/apply/scatter
// iteration over the active set, then the single-threaded wake-buffer
// merge (where a scatter batch can be lost or redelivered in transit).
func (p *policy[V, G]) Superstep(step int, ss *bsp.SuperstepStats) (int, error) {
	prog, csr, cur := p.prog, p.csr, p.col.Values
	workers := p.cfg.Workers
	if st, ok := any(prog).(Stepper); ok {
		st.BeforeStep(step)
	}
	ss.Frontier = int64(p.activeCount)
	// Direction choice for the scatter half: GAS Sum is associative and
	// commutative by contract, so pull is always legal when enabled.
	pull := rt.ChoosePull(p.cfg.Mode, p.bcast != nil, p.activeCount, p.n, p.cfg.PullThreshold)
	ss.Pulled = pull
	if pull {
		p.bcast.Advance()
	}
	p.driver.Lease().Run(func(w int) {
		var workW, sentW, activeW int64
		for _, vid := range p.verts[w] {
			v := int(vid)
			p.next[v] = cur[v]
			if !p.active[v] {
				continue
			}
			p.col.Mark(vid)
			total := prog.Zero()
			srcs := csr.InSpan(vid, p.scratch[w])
			if ws := csr.InWeights(vid); ws == nil {
				for _, u := range srcs {
					total = prog.Sum(total, prog.Gather(u, 1, cur[u]))
				}
			} else {
				for i, u := range srcs {
					total = prog.Sum(total, prog.Gather(u, ws[i], cur[u]))
				}
			}
			workW += int64(len(srcs))
			if prog.Apply(&p.next[v], total) {
				if pull {
					// Pulled scatter: mark the change; destinations
					// find it on their transpose spans below. No
					// wake traffic crosses workers, so Sent stays at
					// the boundary count (0).
					p.bcast.Set(vid, struct{}{}, nil)
				} else {
					// Scatter: wake out-neighbors (buffered per
					// worker; merged after the barrier).
					out := csr.OutSpan(vid, p.scratch[w])
					sentW += int64(len(out))
					p.wake[w] = append(p.wake[w], out...)
				}
			}
			workW++
			activeW++
		}
		ss.Work[w] = workW
		ss.Sent[w] = sentW
		ss.Active[w] = activeW
	})
	p.activeCount = 0
	if pull {
		// Pull-mode activation: each worker scans its owned vertices'
		// transpose spans for a marked in-neighbor. The set computed is
		// exactly ∪ Out(changed) — identical to the wake-buffer merge —
		// and the writes are sharded by owner, so the pass is race-free
		// and runs in parallel (the single-threaded merge below is the
		// push path's serialization point). Nothing is in transit, so
		// scatter-batch faults have nothing to drop on a pulled
		// iteration.
		p.driver.Lease().Run(func(w int) {
			var cnt int64
			for _, vid := range p.verts[w] {
				for _, u := range csr.InSpan(vid, p.scratch[w]) {
					if p.bcast.Has(u) {
						p.nextActive[vid] = true
						cnt++
						break
					}
				}
			}
			p.wakeCount[w] = cnt
		})
		for w := 0; w < workers; w++ {
			p.activeCount += int(p.wakeCount[w])
		}
	} else {
		inj := p.driver.Injector()
		for w := 0; w < workers; w++ {
			passes := 1
			switch inj.LaneFault(step, w, 0) {
			case rt.FaultDropLane:
				// The worker's scatter batch is lost in transit; the
				// activations are unrecoverable, so force a rollback at
				// the next barrier.
				passes = 0
				p.driver.LoseBatch()
			case rt.FaultDupLane:
				// A redelivered batch is absorbed: activation is a set
				// union, so merging it twice is a no-op.
				passes = 2
			}
			for pass := 0; pass < passes; pass++ {
				for _, v := range p.wake[w] {
					if !p.nextActive[v] {
						p.nextActive[v] = true
						p.activeCount++
					}
				}
			}
			p.wake[w] = p.wake[w][:0]
		}
	}
	p.col.Values, p.next = p.next, cur
	p.active, p.nextActive = p.nextActive, p.active
	for i := range p.nextActive {
		p.nextActive[i] = false
	}
	return p.activeCount, nil
}

// Snapshot implements runtime.Policy.
func (p *policy[V, G]) Snapshot() *gasSnapshot[V] {
	return &gasSnapshot[V]{
		col:         p.col.Full(),
		active:      append([]bool(nil), p.active...),
		activeCount: p.activeCount,
	}
}

// SnapshotDelta implements runtime.DeltaPolicy: only the values
// dirtied since the previous frame, plus the complete active set in
// sparse form (it is small exactly when deltas pay off).
func (p *policy[V, G]) SnapshotDelta() *gasSnapshot[V] {
	activeIDs := make([]VertexID, 0, p.activeCount)
	for v, a := range p.active {
		if a {
			activeIDs = append(activeIDs, VertexID(v))
		}
	}
	return &gasSnapshot[V]{col: p.col.Delta(), activeIDs: activeIDs}
}

// Restore implements runtime.Policy.
func (p *policy[V, G]) Restore(snap *gasSnapshot[V], step int, ok bool) {
	if ok {
		p.col.Load(snap.col)
		copy(p.active, snap.active)
		p.activeCount = snap.activeCount
	} else {
		// Restart from the pristine Init-time values: re-running Init
		// here would read the mutable graph mid-run.
		p.col.Reset()
		for v := 0; v < p.n; v++ {
			p.active[v] = true
		}
		p.activeCount = p.n
	}
	clear(p.nextActive)
}

// RestoreDelta implements runtime.DeltaPolicy: patch the dirty values
// onto the chain state, then replace the active set wholesale (each
// delta carries it complete).
func (p *policy[V, G]) RestoreDelta(snap *gasSnapshot[V]) {
	p.col.Patch(snap.col)
	clear(p.active)
	for _, id := range snap.activeIDs {
		p.active[id] = true
	}
	p.activeCount = len(snap.activeIDs)
	clear(p.nextActive)
}

// FrameBytes implements runtime.SnapshotSizer: a deterministic
// resident-byte estimate of a frame.
func (p *policy[V, G]) FrameBytes(snap *gasSnapshot[V]) int64 {
	return snap.col.Bytes() +
		int64(len(snap.active)) +
		int64(len(snap.activeIDs))*rt.SizeOf[VertexID]() + 8
}

// gasSnapshot is one checkpoint generation of a GAS run: the values
// (and any program-private state) plus the active set entering an
// iteration. A full frame carries the active set dense, a delta frame
// (SnapshotDelta) in sparse form as activeIDs, complete either way.
type gasSnapshot[V any] struct {
	col         rt.ColumnFrame[V]
	active      []bool
	activeCount int
	activeIDs   []VertexID
}

// --- GAS PageRank ---

type prProgram struct {
	n      int
	alpha  float64
	eps    float64
	outDeg []float64
}

type prVal struct{ rank float64 }

func (p *prProgram) Init(g *graph.Graph, id VertexID) prVal {
	return prVal{rank: 1 / float64(p.n)}
}

// PrepareGAS precomputes out-degrees from the pinned snapshot, so
// Gather never touches the mutable graph during the run.
func (p *prProgram) PrepareGAS(csr *graph.CSR) {
	p.outDeg = make([]float64, p.n)
	for v := 0; v < p.n; v++ {
		d := csr.OutDegree(VertexID(v))
		if d == 0 {
			d = 1 // dangling: rank leaks, matching the Pregel variant
		}
		p.outDeg[v] = float64(d)
	}
}

func (p *prProgram) Gather(u VertexID, w float64, uVal prVal) float64 {
	// u is the in-neighbor; its rank spreads over its out-degree.
	return uVal.rank / p.outDeg[u]
}

func (p *prProgram) Zero() float64            { return 0 }
func (p *prProgram) Sum(a, b float64) float64 { return a + b }

func (p *prProgram) Apply(v *prVal, total float64) bool {
	nr := (1-p.alpha)/float64(p.n) + p.alpha*total
	changed := nr-v.rank > p.eps || v.rank-nr > p.eps
	v.rank = nr
	return changed
}

// PreparePageRank prepares adaptive (delta-scheduled) PageRank in the
// GAS model, run until every vertex's rank moves less than eps in an
// iteration. Graph reads happen now; the returned closure runs
// lock-free on the pinned snapshot (see Prepare).
func PreparePageRank(g *graph.Graph, alpha, eps float64, cfg Config) func() ([]float64, *Result[prVal], error) {
	n := g.N()
	prog := &prProgram{n: n, alpha: alpha, eps: eps}
	run := Prepare[prVal, float64](g, prog, cfg)
	return func() ([]float64, *Result[prVal], error) {
		res, err := run()
		if err != nil {
			return nil, nil, err
		}
		ranks := make([]float64, n)
		for v, val := range res.Values {
			ranks[v] = val.rank
		}
		return ranks, res, nil
	}
}

// --- GAS connected components (HashMin) ---

// ccProgram's seed, when non-nil, replaces the identity labels at Init
// (see CCProgramSeeded).
type ccProgram struct{ seed []VertexID }

func (p ccProgram) Init(g *graph.Graph, id VertexID) VertexID {
	if p.seed != nil {
		return p.seed[id]
	}
	return id
}

func (ccProgram) Gather(u VertexID, w float64, uVal VertexID) VertexID { return uVal }

// Zero is NoVertex, the identity of the min with "no contribution".
func (ccProgram) Zero() VertexID { return graph.NoVertex }

func (ccProgram) Sum(a, b VertexID) VertexID {
	if a == graph.NoVertex {
		return b
	}
	if b == graph.NoVertex {
		return a
	}
	if b < a {
		return b
	}
	return a
}

func (ccProgram) Apply(v *VertexID, total VertexID) bool {
	if total != graph.NoVertex && total < *v {
		*v = total
		return true
	}
	return false
}

// PrepareConnectedComponents prepares the labelling of every vertex
// with the smallest vertex ID in its (weakly, pull-over-in-edges)
// connected component; on undirected graphs this matches
// seq.Components. Min is associative and order-independent, so the
// result is identical across worker counts and fault schedules (see
// Prepare for the two phases).
func PrepareConnectedComponents(g *graph.Graph, cfg Config) func() ([]VertexID, *Result[VertexID], error) {
	run := Prepare[VertexID, VertexID](g, ccProgram{}, cfg)
	return func() ([]VertexID, *Result[VertexID], error) {
		res, err := run()
		if err != nil {
			return nil, nil, err
		}
		return res.Values, res, nil
	}
}

// --- GAS single-source shortest paths ---

// ssspProgram's seed, when non-nil, replaces the source-only distances
// at Init (see SSSPProgramSeeded).
type ssspProgram struct {
	src  VertexID
	seed []float64
}

func (p ssspProgram) Init(g *graph.Graph, id VertexID) float64 {
	if p.seed != nil {
		return p.seed[id]
	}
	if id == p.src {
		return 0
	}
	return math.Inf(1)
}

// Gather offers a path to v through in-neighbor u: u's tentative
// distance plus the (u -> v) edge weight.
func (p ssspProgram) Gather(u VertexID, w float64, uDist float64) float64 { return uDist + w }

func (p ssspProgram) Zero() float64 { return math.Inf(1) }

func (p ssspProgram) Sum(a, b float64) float64 { return math.Min(a, b) }

func (p ssspProgram) Apply(v *float64, total float64) bool {
	if total < *v {
		*v = total
		return true
	}
	return false
}

// PrepareSSSP prepares single-source shortest paths by pull-based
// distance relaxation (Bellman-Ford style): every vertex starts active,
// so the source's neighbors pick up their first finite distance in
// iteration 0 without the source pushing anything. Unreachable
// vertices keep +Inf, matching seq.Dijkstra. Min-relaxation is
// order-independent, so results are byte-identical across worker
// counts and fault schedules (see Prepare for the two phases).
func PrepareSSSP(g *graph.Graph, src VertexID, cfg Config) func() ([]float64, *Result[float64], error) {
	run := Prepare[float64, float64](g, ssspProgram{src: src}, cfg)
	return func() ([]float64, *Result[float64], error) {
		res, err := run()
		if err != nil {
			return nil, nil, err
		}
		return res.Values, res, nil
	}
}

// --- Seeded programs for the adaptive plan layer ---
//
// A live engine handoff (internal/plan) exports vertex values at a
// superstep barrier and resumes them under another engine. The
// constructors below build the native GAS programs with Init replaying
// those exported values instead of the cold-start state, so a warm
// restart converges to the byte-identical fixpoint.

// CCProgramSeeded is the HashMin component program warm-started from
// exported labels (nil seed is the identity cold start). Min-folding
// is monotone, so re-running from any sound upper bound reaches the
// same fixpoint bit-for-bit.
func CCProgramSeeded(seed []VertexID) Program[VertexID, VertexID] {
	return ccProgram{seed: seed}
}

// SSSPProgramSeeded is the pull-relaxation SSSP program warm-started
// from exported tentative distances (+Inf for unreached vertices; nil
// seed is the source-only cold start).
func SSSPProgramSeeded(src VertexID, seed []float64) Program[float64, float64] {
	return ssspProgram{src: src, seed: seed}
}

// prFixedK is synchronous power-iteration PageRank for exactly k
// folds, used by the adaptive plan layer so a GAS segment is
// bit-compatible with the Pregel fixed-iteration variant. Unlike the
// adaptive eps-scheduled prProgram it never stops early on small
// deltas: a vertex stays asleep only while every in-neighbor's rank is
// bitwise unchanged, in which case its skipped fold would have
// recomputed the identical value (same operands, same csr.In order).
// That lazy-wake invariant makes the k-th iterate equal, bit for bit,
// to the dense power iteration.
type prFixedK struct {
	n      int
	k      int
	alpha  float64
	seed   []float64
	outDeg []float64
	step   int
}

func (p *prFixedK) Init(g *graph.Graph, id VertexID) float64 {
	if p.seed != nil {
		return p.seed[id]
	}
	return 1 / float64(p.n)
}

// PrepareGAS precomputes out-degrees (dangling counts as 1, matching
// the Pregel variant's rank leak) from the pinned snapshot.
func (p *prFixedK) PrepareGAS(csr *graph.CSR) {
	p.outDeg = make([]float64, p.n)
	for v := 0; v < p.n; v++ {
		d := csr.OutDegree(VertexID(v))
		if d == 0 {
			d = 1
		}
		p.outDeg[v] = float64(d)
	}
}

// BeforeStep tracks the superstep so Apply can stop after exactly k
// folds.
func (p *prFixedK) BeforeStep(step int) { p.step = step }

func (p *prFixedK) Gather(u VertexID, w float64, uRank float64) float64 {
	return uRank / p.outDeg[u]
}

func (p *prFixedK) Zero() float64            { return 0 }
func (p *prFixedK) Sum(a, b float64) float64 { return a + b }

func (p *prFixedK) Apply(v *float64, total float64) bool {
	if p.step >= p.k {
		return false
	}
	nr := (1-p.alpha)/float64(p.n) + p.alpha*total
	changed := nr != *v
	*v = nr
	return changed && p.step+1 < p.k
}

// PageRankFixedK builds the fixed-iteration PageRank program: exactly
// k synchronous folds from seed ranks (nil means uniform 1/n). The
// returned program implements Preparer and Stepper.
func PageRankFixedK(n, k int, alpha float64, seed []float64) Program[float64, float64] {
	return &prFixedK{n: n, k: k, alpha: alpha, seed: seed}
}
