// Package async implements an asynchronous vertex-centric execution
// model in the style of GraphLab, the second family of systems the
// paper's §1 surveys ("asynchronous (GraphLab), asynchronous parallel
// (GRACE), barrierless asynchronous parallel (Giraph Unchained)").
// There are no supersteps: a scheduler drains a worklist of active
// vertices; an update function reads the *current* values of the
// vertex's neighbors, writes the vertex's own value, and activates
// neighbors whose recomputation it may have invalidated. Updates apply
// immediately, so information propagates as fast as the schedule
// allows instead of one hop per global barrier — the model's selling
// point, measurable against the BSP engines on identical problems.
//
// The scheduler here is sequential-consistency-by-construction: one
// update at a time in deterministic FIFO order. That keeps results
// reproducible (GraphLab's strongest consistency model) while the
// update counts still expose the async-vs-BSP difference.
package async

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"math"

	"vcgraph/internal/bsp"
	"vcgraph/internal/graph"
	rt "vcgraph/internal/runtime"
)

// VertexID aliases graph.VertexID.
type VertexID = graph.VertexID

// Program is an asynchronous vertex program.
type Program[V any] interface {
	// Init seeds values; every vertex is initially scheduled.
	Init(g *graph.Graph, id VertexID) V
	// Update recomputes v from the current values of its neighbors and
	// returns the neighbors to (re)activate. ctx exposes reads of any
	// vertex's current value.
	Update(ctx *Context[V], v VertexID) []VertexID
}

// Config controls a run.
type Config struct {
	// MaxUpdates caps the total number of vertex updates
	// (default 200·(n+64)).
	MaxUpdates int
	// Prioritized switches the scheduler from FIFO to a max-priority
	// queue ordered by the program's Priority hook (GraphLab's
	// residual scheduling). Programs that do not implement
	// Prioritizer fall back to FIFO. Incompatible with Faults: the
	// heap order is not part of any snapshot, so a rollback could not
	// reproduce the schedule.
	Prioritized bool
	// Snapshot, when non-nil, is an already-pinned CSR generation the
	// engine must run against instead of pinning the graph's current
	// one (the adaptive plan layer re-prepares engines mid-job; see
	// graph.PinSnapshot).
	Snapshot *graph.CSR
	// Replan, when non-nil, is consulted at every epoch boundary;
	// returning true aborts the run with runtime.ErrHandoff and the
	// values at the boundary (see runtime.DriverConfig.Replan). Ignored
	// by the prioritized scheduler, which bypasses the driver.
	Replan func(step, pending int) bool
	// Pool, when non-nil, is a shared worker pool to lease the engine's
	// single worker from instead of building a private pool.
	Pool *rt.Pool
	// RunEnv carries the checkpoint cadence, fault plan, cancellation
	// and job binding (see runtime.RunEnv). One step is an epoch of
	// CheckpointEvery updates (default 64); a checkpoint covers values,
	// worklist and update count. A duplicated activation batch is
	// absorbed because the FIFO worklist deduplicates. Ctx is also
	// checked between prioritized updates. The engine is sequential, so
	// a Job must be submitted with a worker share of 1.
	rt.RunEnv
}

// ErrFaultsNeedFIFO rejects fault injection under the prioritized
// scheduler, whose heap order a snapshot cannot reproduce.
var ErrFaultsNeedFIFO = errors.New("async: fault injection requires the FIFO scheduler")

// defaultEpoch is the fault-detection epoch length (in updates) used
// when CheckpointEvery is unset.
const defaultEpoch = 64

// Prioritizer is the optional program extension priority scheduling
// requires: Priority returns the urgency of updating v given the
// current state (e.g. the PageRank residual). Larger runs first.
type Prioritizer[V any] interface {
	Priority(ctx *Context[V], v VertexID) float64
}

// ErrUpdateCap reports a run exceeding Config.MaxUpdates. It aliases
// bsp.ErrSuperstepCap, the sentinel shared by every engine, so
// errors.Is works across engines.
var ErrUpdateCap = bsp.ErrSuperstepCap

// Result of an asynchronous run.
type Result[V any] struct {
	Values  []V
	Updates int        // total vertex update invocations (the model's work unit)
	Stats   *bsp.Stats // Workers = 1; Recovery itemizes fault-injection cost
}

// Context exposes the live computation state to Update.
type Context[V any] struct {
	g      *graph.Graph
	csr    *graph.CSR
	values []V
	work   int64
	s      *graph.Scratch // pooled span-decode buffers for packed snapshots
}

// Graph returns the input graph. Only its construction-immutable
// properties (N, Directed) are safe to read from Update when a writer
// may be mutating adjacency between jobs; structural reads must go
// through the snapshot accessors (Out, OutWeights, OutEdges).
func (c *Context[V]) Graph() *graph.Graph { return c.g }

// Value returns a pointer to any vertex's current value (reads of
// neighbors see the latest state — the asynchronous semantics).
func (c *Context[V]) Value(v VertexID) *V { return &c.values[v] }

// OutEdges returns v's adjacency as []Edge, materialized fresh from
// the pinned CSR snapshot (never the live graph). Hot update loops
// should prefer the CSR spans (Out/OutWeights), which avoid the
// per-call allocation and the 32-byte Edge layout and let a program
// return the span as its activation list without allocating.
func (c *Context[V]) OutEdges(v VertexID) []graph.Edge {
	d := c.csr.OutDegree(v)
	if d == 0 {
		return nil
	}
	return c.csr.AppendOutEdges(make([]graph.Edge, 0, d), v)
}

// Out returns v's out-neighbor span from the CSR snapshot. The slice
// aliases the snapshot (or, on a packed snapshot, the context's decode
// buffer — the next Out call overwrites it) and must not be modified;
// returning it from Update as the activation list is allocation-free.
func (c *Context[V]) Out(v VertexID) []VertexID { return c.csr.OutSpan(v, c.s) }

// In returns v's in-neighbor span from the CSR snapshot (the out span
// for undirected graphs). It shares the context's decode buffers with
// Out the way OutSpan/InSpan do: one live span per direction.
func (c *Context[V]) In(v VertexID) []VertexID { return c.csr.InSpan(v, c.s) }

// OutWeights returns v's out-edge weight span aligned with Out(v), or
// nil when the graph is unweighted.
func (c *Context[V]) OutWeights(v VertexID) []float64 { return c.csr.OutWeights(v) }

// Preparer is the optional program hook invoked during Prepare with
// the pinned CSR snapshot. Programs that read graph structure outside
// Update (precomputed degrees, a transpose) must do it here, so the
// run closure returned by Prepare never touches the mutable graph.
type Preparer interface {
	PrepareAsync(csr *graph.CSR)
}

// Prepare builds the run that executes prog to quiescence under the
// FIFO scheduler (or the priority scheduler when Config.Prioritized is
// set and the program implements Prioritizer). It splits a run in
// two: every read of the mutable graph — snapshot pinning, the
// Preparer hook, Init, worklist seeding — happens inside Prepare, so a
// caller serving concurrent jobs can bracket it with its graph lock
// and invoke the returned closure lock-free. The closure unpins the
// snapshot when it returns.
func Prepare[V any](g *graph.Graph, prog Program[V], cfg Config) func() (*Result[V], error) {
	csr := cfg.Snapshot
	if csr == nil {
		csr = g.Pin()
	} else {
		g.PinSnapshot(csr)
	}
	n := csr.N()
	if cfg.MaxUpdates <= 0 {
		cfg.MaxUpdates = 200 * (n + 64)
	}
	if prep, ok := any(prog).(Preparer); ok {
		prep.PrepareAsync(csr)
	}
	ctx := &Context[V]{g: g, csr: csr, values: make([]V, n), s: rt.GetScratch()}
	for v := 0; v < n; v++ {
		ctx.values[v] = prog.Init(g, VertexID(v))
	}
	if cfg.Prioritized {
		if pr, ok := prog.(Prioritizer[V]); ok {
			return func() (*Result[V], error) {
				defer g.Unpin(csr)
				defer rt.PutScratch(ctx.s)
				if cfg.Faults.NewInjector(1) != nil {
					return nil, ErrFaultsNeedFIFO
				}
				return runPrioritized(ctx, prog, pr, cfg)
			}
		}
	}
	// The deduplicating FIFO worklist from the shared runtime replaces
	// the previous slice+inQueue pair; its in-place compaction keeps a
	// long drain with re-activations from reallocating the queue.
	queue := rt.NewFIFO(n)
	for v := 0; v < n; v++ {
		queue.Push(VertexID(v))
	}
	epochLen := cfg.CheckpointEvery
	if epochLen <= 0 {
		epochLen = defaultEpoch
	}
	stats := &bsp.Stats{Workers: 1, N: n}
	// One driver step is one epoch of up to epochLen updates; the
	// driver's barrier is the epoch boundary, where faults are detected
	// and checkpoints taken (FaultEvent.Step counts epochs). EpochSaves
	// selects the asynchronous checkpoint ordering: snapshot at the top
	// of each boundary, after fault detection. The update cap is the
	// policy's own (checked per update, not per epoch), so the driver's
	// step cap is unreachable. The policy itself is the shared
	// runtime.WorklistRunner — the same FIFO-epoch machinery that
	// drives the incremental evolving-graph programs.
	p := &rt.WorklistRunner[V]{
		Name:       "async",
		Update:     func(v VertexID) []VertexID { return prog.Update(ctx, v) },
		Prog:       prog,
		Values:     ctx.values,
		Queue:      queue,
		N:          n,
		EpochLen:   epochLen,
		MaxUpdates: cfg.MaxUpdates,
		CapErr:     ErrUpdateCap,
	}
	d := rt.NewDriver[*rt.WorklistSnapshot[V]](p, stats, rt.DriverConfig{
		Name:       "async",
		Workers:    1,
		MaxSteps:   math.MaxInt,
		CapErr:     ErrUpdateCap,
		RunEnv:     cfg.RunEnv,
		EpochSaves: true,
		Pool:       cfg.Pool,
		Replan:     cfg.Replan,
	})
	return func() (*Result[V], error) {
		defer g.Unpin(csr)
		defer rt.PutScratch(ctx.s)
		_, err := d.Run()
		return &Result[V]{Values: ctx.values, Updates: p.Updates(), Stats: stats}, err
	}
}

// runPrioritized drains a lazy max-priority queue: every activation
// pushes (v, current priority); stale entries (v re-updated since the
// push) are skipped at pop time.
func runPrioritized[V any](ctx *Context[V], prog Program[V], pr Prioritizer[V], cfg Config) (*Result[V], error) {
	goCtx := cfg.Context()
	n := ctx.g.N()
	pq := &prioQueue{}
	scheduled := make([]bool, n)
	// Decrease-key by duplication: re-activations push a fresh entry
	// with the current priority; pops skip entries whose vertex was
	// already processed since (scheduled flag cleared).
	push := func(v VertexID) {
		scheduled[v] = true
		heap.Push(pq, prioItem{v: v, p: pr.Priority(ctx, v)})
	}
	for v := 0; v < n; v++ {
		push(VertexID(v))
	}
	stats := &bsp.Stats{Workers: 1, N: n}
	updates := 0
	// On a packed snapshot the activation span Update returns lives in
	// the context's decode buffer, and push -> Priority -> ctx.Out would
	// overwrite it mid-iteration; copy it out first (reused buffer). A
	// flat snapshot's spans alias immutable CSR arrays — no copy.
	copyActs := ctx.csr.Packed()
	var actBuf []VertexID
	for pq.Len() > 0 {
		// This loop bypasses the superstep driver (there are no epoch
		// boundaries), so cancellation is checked between updates.
		if goCtx.Err() != nil {
			return &Result[V]{Values: ctx.values, Updates: updates, Stats: stats},
				fmt.Errorf("async: %w", context.Cause(goCtx))
		}
		if updates >= cfg.MaxUpdates {
			return &Result[V]{Values: ctx.values, Updates: updates, Stats: stats},
				fmt.Errorf("async: %w (cap %d)", ErrUpdateCap, cfg.MaxUpdates)
		}
		it := heap.Pop(pq).(prioItem)
		if !scheduled[it.v] {
			continue // stale entry
		}
		scheduled[it.v] = false
		updates++
		acts := prog.Update(ctx, it.v)
		if copyActs {
			actBuf = append(actBuf[:0], acts...)
			acts = actBuf
		}
		for _, w := range acts {
			push(w)
		}
	}
	return &Result[V]{Values: ctx.values, Updates: updates, Stats: stats}, nil
}

type prioItem struct {
	v VertexID
	p float64
}

type prioQueue struct{ items []prioItem }

func (q *prioQueue) Len() int           { return len(q.items) }
func (q *prioQueue) Less(i, j int) bool { return q.items[i].p > q.items[j].p }
func (q *prioQueue) Swap(i, j int)      { q.items[i], q.items[j] = q.items[j], q.items[i] }
func (q *prioQueue) Push(x any)         { q.items = append(q.items, x.(prioItem)) }
func (q *prioQueue) Pop() any {
	old := q.items
	x := old[len(old)-1]
	q.items = old[:len(old)-1]
	return x
}

// --- Async SSSP (label-correcting) ---

// ssspProgram's seed, when non-nil, replaces the source-only distances
// at Init (see SSSPProgramSeeded).
type ssspProgram struct {
	src  VertexID
	seed []float64
}

func (p *ssspProgram) Init(g *graph.Graph, id VertexID) float64 {
	if p.seed != nil {
		return p.seed[id]
	}
	if id == p.src {
		return 0
	}
	return inf
}

const inf = 1e308

func (p *ssspProgram) Update(ctx *Context[float64], v VertexID) []VertexID {
	// Recompute from in-neighbors' live distances (undirected: same set).
	d := inf
	if v == p.src {
		d = 0
	}
	dsts := ctx.Out(v)
	if ws := ctx.OutWeights(v); ws == nil {
		for _, u := range dsts {
			if nd := *ctx.Value(u) + 1; nd < d {
				d = nd
			}
		}
	} else {
		for i, u := range dsts {
			if nd := *ctx.Value(u) + ws[i]; nd < d {
				d = nd
			}
		}
	}
	if d < *ctx.Value(v) {
		*ctx.Value(v) = d
		return dsts
	}
	return nil
}

// Priority orders SSSP updates closest-first by the distance v WOULD
// settle to (the best current offer from its neighbors): with this
// schedule the label-correcting process becomes label-setting,
// Dijkstra-style — most vertices update exactly once.
func (p *ssspProgram) Priority(ctx *Context[float64], v VertexID) float64 {
	best := *ctx.Value(v)
	dsts := ctx.Out(v)
	if ws := ctx.OutWeights(v); ws == nil {
		for _, u := range dsts {
			if cand := *ctx.Value(u) + 1; cand < best {
				best = cand
			}
		}
	} else {
		for i, u := range dsts {
			if cand := *ctx.Value(u) + ws[i]; cand < best {
				best = cand
			}
		}
	}
	return -best
}

// PrepareSSSP prepares single-source shortest paths computed
// asynchronously (label-correcting over live values) on an undirected
// weighted graph. With cfg.Prioritized the schedule is closest-first.
// Graph reads happen now; the returned closure runs against the pinned
// snapshot.
func PrepareSSSP(g *graph.Graph, src VertexID, cfg Config) func() ([]float64, *Result[float64], error) {
	run := Prepare[float64](g, &ssspProgram{src: src}, cfg)
	return func() ([]float64, *Result[float64], error) {
		res, err := run()
		if err != nil {
			return nil, res, err
		}
		return res.Values, res, nil
	}
}

// --- Async PageRank (Gauss–Seidel with delta scheduling) ---

type prProgram struct {
	n      int
	alpha  float64
	eps    float64
	outDeg []float64
	csr    *graph.CSR
}

func (p *prProgram) Init(g *graph.Graph, id VertexID) float64 { return 1 / float64(p.n) }

// PrepareAsync caches the pinned snapshot, its transpose, and the
// out-degrees (dangling vertices count 1) before the run starts.
func (p *prProgram) PrepareAsync(csr *graph.CSR) {
	csr.EnsureIn() // the Gauss–Seidel sweep pulls over the transpose
	p.csr = csr
	p.outDeg = make([]float64, p.n)
	for v := 0; v < p.n; v++ {
		d := csr.OutDegree(VertexID(v))
		if d == 0 {
			d = 1
		}
		p.outDeg[v] = float64(d)
	}
}

func (p *prProgram) Update(ctx *Context[float64], v VertexID) []VertexID {
	var sum float64
	for _, u := range ctx.In(v) {
		sum += *ctx.Value(u) / p.outDeg[u]
	}
	nr := (1-p.alpha)/float64(p.n) + p.alpha*sum
	old := *ctx.Value(v)
	*ctx.Value(v) = nr
	if d := nr - old; d > p.eps || d < -p.eps {
		return ctx.Out(v)
	}
	return nil
}

// PreparePageRank prepares asynchronous PageRank: Gauss–Seidel sweeps
// over live values with delta-based rescheduling, converging to the
// same fixpoint as synchronous power iteration but typically in fewer
// updates (newer information propagates within a single drain). The
// transpose and out-degrees are captured from the pinned snapshot now;
// the returned closure runs lock-free.
func PreparePageRank(g *graph.Graph, alpha, eps float64, cfg Config) func() ([]float64, *Result[float64], error) {
	run := Prepare[float64](g, &prProgram{n: g.N(), alpha: alpha, eps: eps}, cfg)
	return func() ([]float64, *Result[float64], error) {
		res, err := run()
		if err != nil {
			return nil, res, err
		}
		return res.Values, res, nil
	}
}

// --- Async connected components (min-label) ---

// ccProgram's seed, when non-nil, replaces the identity labels at Init
// (see CCProgramSeeded).
type ccProgram struct{ seed []VertexID }

func (p ccProgram) Init(g *graph.Graph, id VertexID) VertexID {
	if p.seed != nil {
		return p.seed[id]
	}
	return id
}

func (ccProgram) Update(ctx *Context[VertexID], v VertexID) []VertexID {
	min := *ctx.Value(v)
	dsts := ctx.Out(v)
	for _, u := range dsts {
		if l := *ctx.Value(u); l < min {
			min = l
		}
	}
	if min < *ctx.Value(v) {
		*ctx.Value(v) = min
		return dsts
	}
	return nil
}

// PrepareConnectedComponents prepares the labelling of components
// with the minimum member ID via asynchronous min-label propagation.
// Graph reads happen now; the returned closure runs against the pinned
// snapshot.
func PrepareConnectedComponents(g *graph.Graph, cfg Config) func() ([]VertexID, *Result[VertexID], error) {
	run := Prepare[VertexID](g, ccProgram{}, cfg)
	return func() ([]VertexID, *Result[VertexID], error) {
		res, err := run()
		if err != nil {
			return nil, res, err
		}
		return res.Values, res, nil
	}
}

// --- Seeded programs for the adaptive plan layer ---

// DistInf is the sentinel the async SSSP program uses for "unreached"
// (a finite stand-in for +Inf so priority arithmetic stays ordered).
// The adaptive plan layer normalizes distances at engine boundaries:
// +Inf becomes DistInf entering an async segment and DistInf becomes
// +Inf leaving one.
const DistInf = inf

// CCProgramSeeded warm-starts async min-label components from exported
// labels. Update recomputes from live neighbor values, so re-seeding
// the full FIFO with partially-converged labels reaches the same
// fixpoint.
func CCProgramSeeded(seed []VertexID) Program[VertexID] {
	return ccProgram{seed: seed}
}

// SSSPProgramSeeded warm-starts async label-correcting SSSP from
// exported tentative distances. Callers must pre-normalize +Inf to
// DistInf; the Update rule only ever improves values, so any sound
// upper bound converges to the same distances.
func SSSPProgramSeeded(src VertexID, seed []float64) Program[float64] {
	return &ssspProgram{src: src, seed: seed}
}
