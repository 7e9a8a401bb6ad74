// Package pregel implements a vertex-centric bulk-synchronous-parallel
// graph processing engine in the style of Google's Pregel: computation
// proceeds in globally synchronous supersteps; in each superstep a
// user-supplied Compute function runs for every active vertex, consumes
// the messages addressed to the vertex in the previous superstep, sends
// messages to arbitrary vertices, votes to halt, and optionally mutates
// the vertex's own adjacency list. The engine supports message
// combiners, named aggregators, and a master-compute hook for
// multi-phase algorithms.
//
// The engine is fully instrumented: it records, per superstep and per
// worker, the local work and message volume that Valiant's BSP cost
// model charges (see internal/bsp), and it tracks the per-vertex
// balance evidence needed to check the BPPA properties of Yan et al.
package pregel

import (
	"math/rand"
	"slices"

	"vcgraph/internal/bsp"
	"vcgraph/internal/graph"
	rt "vcgraph/internal/runtime"
)

// VertexID aliases graph.VertexID for convenience.
type VertexID = graph.VertexID

// Program is a vertex program: Init produces the initial value of each
// vertex; Compute is invoked once per active vertex per superstep with
// the messages delivered to it.
type Program[V, M any] interface {
	Init(g *graph.Graph, id VertexID) V
	Compute(ctx *Context[V, M], msgs []M)
}

// Master is an optional extension of Program: BeforeSuperstep runs
// once, single-threaded, before every superstep. It can inspect
// aggregator values from the previous superstep, publish globals,
// switch phases, re-activate all vertices, or halt the computation.
type Master interface {
	BeforeSuperstep(mc *MasterContext)
}

// StateSizer is an optional extension of Program: when implemented, the
// engine samples StateUnits after each vertex computation to check the
// BPPA space property (P1).
type StateSizer[V any] interface {
	StateUnits(v *V) int64
}

// Combiner merges two messages addressed to the same vertex.
type Combiner[M any] func(a, b M) M

// Aggregator reduces values contributed by vertices during a superstep
// into a single value visible in the next superstep. Reduce must be
// associative and commutative.
type Aggregator interface {
	Zero() any
	Reduce(a, b any) any
}

// Config controls an engine run.
type Config[M any] struct {
	// Workers is the number of parallel workers (the P of the
	// time-processor product). Defaults to min(4, GOMAXPROCS).
	Workers int
	// MaxSupersteps caps the run; exceeding it makes Run return
	// ErrSuperstepCap. Defaults to 1 + 10·(n + 64).
	MaxSupersteps int
	// Combiner, when set, merges messages per destination vertex.
	Combiner Combiner[M]
	// MessageLess, when set, sorts each vertex's inbox before Compute,
	// making message order deterministic regardless of worker count.
	MessageLess func(a, b M) bool
	// Seed feeds Context.Rand. Defaults to 1.
	Seed int64
	// FCSThreshold enables "finishing computations serially": when the
	// active-vertex count drops to this value or below and the program
	// implements SerialFinisher, the computation is completed
	// sequentially in one final step (0 = disabled).
	FCSThreshold int
	// Partition assigns vertices to workers; nil means PartitionHash.
	// Partitioning changes per-worker load (and hence the measured BSP
	// superstep costs) but never results.
	Partition Partitioner
	// Snapshot, when non-nil, is an already-pinned CSR generation the
	// engine must run against instead of pinning the graph's current
	// one — the adaptive plan layer re-prepares engines mid-job and
	// every segment must see the same snapshot even if writers
	// republished in between. The engine takes (and releases) its own
	// reference on it via Graph.PinSnapshot.
	Snapshot *graph.CSR
	// Replan, when non-nil, is consulted at every superstep barrier
	// (after rollback, before compute); returning true aborts the run
	// with runtime.ErrHandoff and the values at the barrier — the live
	// engine-handoff hook (see runtime.DriverConfig.Replan).
	Replan func(step, pending int) bool
	// Mode selects the message path direction: push (every message is
	// materialized through the mailbox), pull (supersteps with a
	// combiner gather broadcasts over CSR transpose spans), or auto
	// (the default: pull when the active frontier is dense). Pull
	// requires a Combiner; without one every superstep pushes.
	Mode rt.DirectionMode
	// PullThreshold overrides the auto-mode frontier density above
	// which a superstep is pulled, as a fraction of n
	// (<= 0 means runtime.DefaultPullThreshold, 1/20).
	PullThreshold float64
	// Pool, when non-nil, is a shared worker pool to lease workers from
	// instead of building a private pool for the run.
	Pool *rt.Pool
	// RunEnv carries the checkpoint cadence, fault plan, cancellation
	// and job binding (see runtime.RunEnv; checkpoint.go has what a
	// pregel checkpoint covers). Under a Job, Workers is taken from the
	// job's lease.
	rt.RunEnv
}

// ErrSuperstepCap reports that the run exceeded Config.MaxSupersteps.
// It aliases bsp.ErrSuperstepCap, the sentinel shared by every engine,
// so errors.Is works across engines.
var ErrSuperstepCap = bsp.ErrSuperstepCap

// Result is the outcome of a run.
type Result[V any] struct {
	// Values holds the final vertex values, indexed by VertexID.
	Values []V
	// Stats is the instrumentation record consumed by internal/bsp.
	Stats *bsp.Stats
	// Aggregates holds the final value of every registered aggregator.
	Aggregates map[string]any
	// Supersteps is the number of supersteps executed.
	Supersteps int
}

// maxima tracks one worker's running per-vertex BPPA ratio maxima
// within a superstep.
type maxima struct {
	state, compute, sent, recv float64
}

// Engine executes a Program over a graph. Message routing, worker
// scheduling, and active-vertex tracking sit on the shared primitives
// of internal/runtime: a persistent worker pool, sharded mailboxes
// with sender-side combining, and per-worker worklists.
type Engine[V, M any] struct {
	g    *graph.Graph
	prog Program[V, M]
	cfg  Config[M]

	// col holds the vertex values. Its dirty set marks vertices whose
	// engine-visible state may have changed since the last checkpoint
	// frame: computed vertices (value, halt flag, inbox reset,
	// adjacency mutation), mail receivers (inbox, raw count), and
	// master reactivations; delta frames carry exactly this set.
	col     rt.Column[V]
	halted  []bool
	csr     *graph.CSR     // pinned immutable adjacency snapshot, the hot-loop view
	adj     [][]graph.Edge // per-vertex materialized/mutated out-edges; nil = read the CSR
	mutated []bool         // adj[v] diverges from the snapshot (SetOutEdges)
	inadj   [][]graph.Edge // per-vertex lazily materialized in-edges (CSR transpose)
	deg     []int          // original total degree, for BPPA ratios

	ownerOf []int32      // vertex -> worker
	verts   [][]VertexID // worker -> owned vertices

	mbox   *rt.Mailbox[M]                // sharded outbox lanes + per-vertex inboxes
	wl     *rt.Worklists                 // vertices to compute next superstep
	driver *rt.Driver[*checkpoint[V, M]] // shared superstep kernel, live for one Run

	// Direction-optimizing execution (nil/false unless a combiner is
	// registered and Mode permits pull): per-vertex broadcast slots
	// written during pulled compute phases and per-worker gather
	// scratch that folds transpose spans in push-identical order.
	bcast    *rt.Broadcasts[M]
	gather   []*rt.Gatherer[M]
	pullStep bool // current superstep runs the pull path

	// Per-superstep scratch, allocated once per engine. scratch holds
	// each worker's span-decode buffers: on a packed snapshot OutSpan/
	// InSpan decode into them, on a flat snapshot they alias the CSR
	// arrays and the buffers stay nil.
	ctxs      []Context[V, M]
	scratch   []*graph.Scratch // pooled span-decode buffers, returned when Run ends
	workerMax []maxima
	delivered []int64
	placed    []int64
	pulledRaw []int64          // raw messages gathered per worker (pull steps)
	onMail    []func(VertexID) // per-worker worklist hook for delivery

	aggs        map[string]Aggregator
	aggCurrent  map[string]any // finalized, visible this superstep
	aggPartials []map[string]any
	globals     map[string]any

	stats     *bsp.Stats
	superstep int

	sizer StateSizer[V]

	masterHalt  bool
	activateAll bool

	dropScratch []bool // per-worker drop flags filled during delivery
	recoveries  int
}

// NewEngine builds an engine for prog over g: the prepare phase. It
// pins the graph's CSR snapshot, partitions, and seeds every vertex
// value with prog.Init — every read of the mutable graph happens here,
// so a serving layer can construct engines under a graph read lock and
// Run them lock-free while writers mutate and republish. Programs read
// adjacency through the pinned snapshot; a vertex that mutates its
// out-edges via Context.SetOutEdges gets a private materialized copy,
// so the input graph is never modified.
func NewEngine[V, M any](g *graph.Graph, prog Program[V, M], cfg Config[M]) *Engine[V, M] {
	csr := cfg.Snapshot
	if csr == nil {
		csr = g.Pin()
	} else {
		g.PinSnapshot(csr)
	}
	n := csr.N()
	if cfg.Job != nil {
		cfg.Workers = cfg.Job.Workers()
	}
	if cfg.Workers <= 0 {
		cfg.Workers = rt.DefaultWorkers()
	}
	if cfg.MaxSupersteps <= 0 {
		cfg.MaxSupersteps = 1 + 10*(n+64)
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	e := &Engine[V, M]{
		g:       g,
		prog:    prog,
		cfg:     cfg,
		halted:  make([]bool, n),
		csr:     csr,
		adj:     make([][]graph.Edge, n),
		mutated: make([]bool, n),
		deg:     make([]int, n),
		aggs:    make(map[string]Aggregator),
		globals: make(map[string]any),
		stats:   &bsp.Stats{Workers: cfg.Workers, N: n},
	}
	if g.Directed {
		// In-edge reads (Context.InEdges, degree ratios) come from the
		// snapshot's transpose, never from the live graph.
		e.csr.EnsureIn()
		e.inadj = make([][]graph.Edge, n)
	}
	for v := 0; v < n; v++ {
		e.deg[v] = e.csr.TotalDegree(VertexID(v))
	}
	values := make([]V, n)
	for v := 0; v < n; v++ {
		values[v] = prog.Init(g, VertexID(v))
	}
	e.col = rt.NewColumn(prog, values, cfg.Faults != nil)
	if cfg.Partition != nil {
		e.ownerOf = cfg.Partition(g, cfg.Workers)
	} else {
		// The default hash partition sizes from the pinned snapshot, not
		// the live graph, which may have grown past it.
		e.ownerOf = rt.PartitionHashN(n, cfg.Workers)
	}
	e.verts = rt.GroupByOwner("pregel", e.ownerOf, cfg.Workers)
	e.mbox = rt.NewMailbox[M](cfg.Workers, e.ownerOf, cfg.Combiner)
	e.wl = rt.NewWorklists(cfg.Workers, n)
	if cfg.Combiner != nil && cfg.Mode != rt.DirectionPush {
		// Pull path: broadcast slots plus per-worker gather scratch
		// over the CSR transpose (shared with the out-CSR for
		// undirected graphs, built once with a counting sort for
		// directed ones).
		e.csr.EnsureIn()
		e.bcast = rt.NewBroadcasts[M](n)
		e.gather = make([]*rt.Gatherer[M], cfg.Workers)
		for w := range e.gather {
			e.gather[w] = rt.NewGatherer[M](cfg.Workers)
		}
	}
	e.ctxs = make([]Context[V, M], cfg.Workers)
	e.scratch = rt.GetScratches(cfg.Workers)
	e.workerMax = make([]maxima, cfg.Workers)
	e.delivered = make([]int64, cfg.Workers)
	e.placed = make([]int64, cfg.Workers)
	e.pulledRaw = make([]int64, cfg.Workers)
	e.onMail = make([]func(VertexID), cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		e.ctxs[w] = Context[V, M]{engine: e, worker: w}
		// Delivery marks receivers dirty: the hook fires exactly once per
		// vertex receiving mail in a superstep (rawRecv is zero at the
		// first deposit — computed vertices reset theirs), and worker w
		// only touches vertices it owns, so the write is race-free.
		e.onMail[w] = func(v VertexID) {
			e.col.Mark(v)
			e.wl.Add(w, v)
		}
	}
	e.aggPartials = make([]map[string]any, cfg.Workers)
	for w := range e.aggPartials {
		e.aggPartials[w] = make(map[string]any)
	}
	if s, ok := prog.(StateSizer[V]); ok {
		e.sizer = s
	}
	return e
}

// RegisterAggregator registers a named aggregator. Must be called
// before Run.
func (e *Engine[V, M]) RegisterAggregator(name string, a Aggregator) {
	e.aggs[name] = a
}

// Graph returns the input graph.
func (e *Engine[V, M]) Graph() *graph.Graph { return e.g }

func (e *Engine[V, M]) owner(v VertexID) int { return int(e.ownerOf[v]) }

// outEdges returns v's current out-adjacency as []Edge, materializing
// it from the CSR snapshot on first request and caching the copy. Only
// v's owner worker touches adj[v] during parallel phases, so the lazy
// fill is race-free. Hot paths that don't need Edge values use
// Context.ForEachOut / Context.OutDegree and never materialize.
func (e *Engine[V, M]) outEdges(v VertexID) []graph.Edge {
	if a := e.adj[v]; a != nil || e.mutated[v] {
		return a
	}
	d := e.csr.OutDegree(v)
	if d == 0 {
		return nil
	}
	a := e.csr.AppendOutEdges(make([]graph.Edge, 0, d), v)
	e.adj[v] = a
	return a
}

// inEdges returns v's in-adjacency as []Edge (directed graphs),
// materializing it from the CSR transpose on first request and caching
// the copy. Only v's owner worker requests it during parallel phases
// (Compute runs on owned vertices), so the lazy fill is race-free.
func (e *Engine[V, M]) inEdges(v VertexID) []graph.Edge {
	if a := e.inadj[v]; a != nil {
		return a
	}
	d := e.csr.InDegree(v)
	if d == 0 {
		return nil
	}
	a := e.csr.AppendInEdges(make([]graph.Edge, 0, d), v)
	e.inadj[v] = a
	return a
}

// Run executes the program to termination: when every vertex has voted
// to halt and no messages are in flight, or when the master halts. It
// returns ErrSuperstepCap (with the partial Result) if the cap is hit.
// The superstep lifecycle — dispatch, fault firing, checkpoint cadence,
// rollback, halting, cost accounting — is owned by the shared
// runtime.Driver; the engine contributes the pregel policy below.
func (e *Engine[V, M]) Run() (*Result[V], error) {
	defer e.g.Unpin(e.csr)
	defer rt.PutScratches(e.scratch)
	e.aggCurrent = make(map[string]any, len(e.aggs))
	for name, a := range e.aggs {
		e.aggCurrent[name] = a.Zero()
	}
	e.dropScratch = make([]bool, e.cfg.Workers)

	// Every vertex computes at superstep 0 (values were seeded by
	// NewEngine; Run itself never reads the mutable graph).
	e.wl.FillAll(e.verts)

	e.driver = rt.NewDriver[*checkpoint[V, M]](e, e.stats, rt.DriverConfig{
		Name:     "pregel",
		Workers:  e.cfg.Workers,
		MaxSteps: e.cfg.MaxSupersteps,
		CapErr:   ErrSuperstepCap,
		RunEnv:   e.cfg.RunEnv,
		Pool:     e.cfg.Pool,
		Replan:   e.cfg.Replan,
	})
	steps, err := e.driver.Run()
	e.driver = nil
	e.superstep = steps
	return &Result[V]{
		Values:     e.col.Values,
		Stats:      e.stats,
		Aggregates: e.aggCurrent,
		Supersteps: steps,
	}, err
}

// BeforeSuperstep implements runtime.MasterPolicy: the single-threaded
// master-compute hook, which can publish globals, re-activate every
// vertex, or halt the run.
func (e *Engine[V, M]) BeforeSuperstep(step, pending int) (halt bool) {
	e.superstep = step
	e.activateAll = false
	if master, hasMaster := e.prog.(Master); hasMaster {
		mc := &MasterContext{engine: anyEngine{setGlobal: e.setGlobal, agg: e.aggValue, activate: func() { e.activateAll = true }, halt: func() { e.masterHalt = true }}, superstep: step, pending: pending, frontier: e.wl.Pending()}
		master.BeforeSuperstep(mc)
		if e.masterHalt {
			return true
		}
	}
	if e.activateAll {
		// Reactivation flips halt flags outside any compute phase; the
		// formerly-halted vertices must reach the next delta frame.
		for v := range e.halted {
			if e.halted[v] {
				e.halted[v] = false
				e.col.Mark(VertexID(v))
			}
		}
		e.wl.FillAll(e.verts)
	}
	return false
}

// Quiescent implements runtime.Policy: a vertex computes if it is
// active or has mail; the worklist holds exactly those vertices, so the
// check is an O(P) counter read instead of an O(n) halt-flag scan.
func (e *Engine[V, M]) Quiescent(step, pending int) bool { return e.wl.Pending() == 0 }

// Superstep implements runtime.Policy: one compute + delivery round,
// returning the number of raw messages delivered for the next
// superstep.
func (e *Engine[V, M]) Superstep(step int, ss *bsp.SuperstepStats) (int, error) {
	e.superstep = step
	p := e.cfg.Workers
	for w := range e.workerMax {
		e.workerMax[w] = maxima{}
	}
	inj := e.driver.Injector()

	// Direction choice: pull this superstep when a combiner exists and
	// the frontier about to compute is dense enough (worklist size is
	// rebuilt identically after a rollback, so replay re-picks the same
	// mode). In a pulled superstep SendToNeighbors publishes a
	// broadcast slot instead of materializing per-edge mailbox
	// messages; destinations gather over their transpose spans below.
	// Frontier entering the superstep: the signal both the direction
	// choice below and the adaptive planner's replan decisions see.
	ss.Frontier = int64(e.wl.Pending())
	e.pullStep = rt.ChoosePull(e.cfg.Mode, e.bcast != nil, e.wl.Pending(), e.stats.N, e.cfg.PullThreshold)
	if e.pullStep && e.cfg.FCSThreshold > 0 && e.wl.Pending() <= e.cfg.FCSThreshold {
		// FCS regime: the frontier is already small enough for the
		// serial finisher, so a pulled superstep would scan every
		// vertex's transpose span to gather a handful of broadcasts —
		// exactly the straggler tail FCS exists to avoid. Pin push.
		e.pullStep = false
	}
	ss.Pulled = e.pullStep

	// Compute phase: each pool worker drains its worklist shard —
	// only vertices that are active or have mail, in ascending vertex
	// order (matching a full partition scan, so results are identical
	// to the pre-worklist engine).
	e.mbox.Advance() // invalidate last superstep's sender-combining slots
	if e.bcast != nil {
		e.bcast.Advance()
	}
	e.wl.Flip()
	e.driver.Lease().Run(func(w int) {
		e.wl.SortCur(w, e.verts[w])
		ctx := &e.ctxs[w]
		for _, vid := range e.wl.Cur(w) {
			v := int(vid)
			e.wl.Unmark(vid)
			msgs := e.mbox.Inbox(vid)
			raw := e.mbox.RawCount(vid)
			if e.halted[v] && raw == 0 && step > 0 {
				continue
			}
			e.col.Mark(vid)
			if raw > 0 {
				e.halted[v] = false
			}
			if e.cfg.MessageLess != nil && len(msgs) > 1 {
				less := e.cfg.MessageLess
				slices.SortStableFunc(msgs, func(a, b M) int {
					switch {
					case less(a, b):
						return -1
					case less(b, a):
						return 1
					}
					return 0
				})
			}
			ctx.id = vid
			ctx.sent = 0
			ctx.wire = 0
			ctx.charge = 0
			ctx.state = -1
			ctx.halt = false
			e.prog.Compute(ctx, msgs)
			if ctx.halt {
				e.halted[v] = true
			} else {
				e.wl.Add(w, vid)
			}
			e.mbox.ResetVertex(vid)

			// Work and the BPPA ratios charge logical sends (ctx.sent,
			// what the algorithm asked for, identical in either mode);
			// the superstep's h charges only wire messages (ctx.wire,
			// what actually crossed the mailbox — equal to ctx.sent in
			// push mode, boundary-only in pull mode).
			work := 1 + raw + ctx.sent + ctx.charge
			ss.Work[w] += work
			ss.Sent[w] += ctx.wire
			ss.Active[w]++
			d := float64(e.deg[v] + 1)
			mm := &e.workerMax[w]
			if r := float64(work) / d; r > mm.compute {
				mm.compute = r
			}
			if r := float64(ctx.sent) / d; r > mm.sent {
				mm.sent = r
			}
			if r := float64(raw) / d; r > mm.recv {
				mm.recv = r
			}
			if e.sizer != nil {
				su := e.sizer.StateUnits(&e.col.Values[v])
				if r := float64(su) / d; r > mm.state {
					mm.state = r
				}
			}
		}
	})

	// Delivery phase: worker j drains every mailbox lane addressed to
	// it and queues vertices receiving their first message. Under
	// fault injection a lane batch may be dropped (forcing a rollback
	// at the next barrier) or redelivered (detected and discarded).
	// In a pulled superstep the same pass then gathers broadcasts over
	// each owned vertex's transpose span into its inbox — after the
	// lane drain, so the combined accumulator lands exactly where a
	// delivered lane entry would. Deposits complete before the
	// barrier, which keeps checkpoints and rollback replay
	// mode-oblivious: a snapshot always sees fully-materialized
	// inboxes.
	e.driver.Lease().Run(func(w int) {
		e.delivered[w], e.placed[w], e.dropScratch[w] = e.mbox.DeliverFaulty(w, step, inj, e.onMail[w])
		if e.pullStep {
			raw, placed := e.gatherPulled(w)
			e.pulledRaw[w] = raw
			e.placed[w] += placed
		} else {
			e.pulledRaw[w] = 0
		}
	})
	for w := 0; w < p; w++ {
		if e.dropScratch[w] {
			e.dropScratch[w] = false
			e.driver.LoseBatch()
		}
	}

	// Finalize aggregators.
	for name, a := range e.aggs {
		val := a.Zero()
		for w := 0; w < p; w++ {
			if pv, ok := e.aggPartials[w][name]; ok {
				val = a.Reduce(val, pv)
				delete(e.aggPartials[w], name)
			}
		}
		e.aggCurrent[name] = val
	}

	// ss.Recv charges only wire messages (boundary pushes; every raw
	// message in push mode), so a fully-pulled superstep prices h = 0.
	// Gathered messages still count toward pending — the master's
	// PendingMessages and the next superstep's per-vertex work see the
	// same raw counts in either mode.
	var pending int64
	for w := 0; w < p; w++ {
		ss.Recv[w] = e.delivered[w]
		pending += e.delivered[w] + e.pulledRaw[w]
		e.stats.InboxDeliveries += e.placed[w]
		m := e.workerMax[w]
		if m.state > e.stats.MaxStatePerDeg {
			e.stats.MaxStatePerDeg = m.state
		}
		if m.compute > e.stats.MaxComputePerDeg {
			e.stats.MaxComputePerDeg = m.compute
		}
		if m.sent > e.stats.MaxSentPerDeg {
			e.stats.MaxSentPerDeg = m.sent
		}
		if m.recv > e.stats.MaxRecvPerDeg {
			e.stats.MaxRecvPerDeg = m.recv
		}
	}
	return int(pending), nil
}

// gatherPulled runs worker w's half of a pulled superstep's delivery:
// every owned vertex folds the broadcast slots of its transpose span
// into one accumulator (in push-identical order, see runtime.Gatherer)
// and deposits it into its own inbox, waking exactly as first mail
// would. Zero mailbox traffic, zero allocation: the span is a CSR
// view, the scratch is per-worker, and the deposit reuses the inbox
// slot the combiner keeps at length one.
func (e *Engine[V, M]) gatherPulled(w int) (raw, placed int64) {
	g := e.gather[w]
	comb := e.cfg.Combiner
	onMail := e.onMail[w]
	for _, v := range e.verts[w] {
		acc, r, ok := g.Gather(e.bcast, e.ownerOf, e.csr.InSpan(v, e.scratch[w]), comb)
		if !ok {
			continue
		}
		raw += r
		placed += e.mbox.DepositPulled(v, acc, r, onMail)
	}
	return raw, placed
}

func (e *Engine[V, M]) setGlobal(name string, v any) { e.globals[name] = v }

func (e *Engine[V, M]) aggValue(name string) any { return e.aggCurrent[name] }

func (e *Engine[V, M]) aggregate(worker int, name string, v any) {
	a, ok := e.aggs[name]
	if !ok {
		panic("pregel: aggregate to unregistered aggregator " + name)
	}
	part := e.aggPartials[worker]
	if cur, ok := part[name]; ok {
		part[name] = a.Reduce(cur, v)
	} else {
		part[name] = a.Reduce(a.Zero(), v)
	}
}

// Context is the per-vertex view handed to Compute. It is only valid
// for the duration of the Compute call.
type Context[V, M any] struct {
	engine *Engine[V, M]
	worker int
	id     VertexID
	sent   int64 // logical messages the program asked to send
	wire   int64 // messages actually materialized through the mailbox
	charge int64
	state  int64
	halt   bool
}

// ID returns the vertex ID.
func (c *Context[V, M]) ID() VertexID { return c.id }

// Superstep returns the current superstep number (0-based).
func (c *Context[V, M]) Superstep() int { return c.engine.superstep }

// NumVertices returns the number of vertices in the graph.
func (c *Context[V, M]) NumVertices() int { return c.engine.g.N() }

// Value returns a pointer to this vertex's mutable value.
func (c *Context[V, M]) Value() *V { return &c.engine.col.Values[c.id] }

// ValueOfUnsafe returns a pointer to another vertex's value. It is safe
// only when the program guarantees no concurrent writer (used by
// read-only post-processing and tests, not by Compute on other
// vertices' values).
func (c *Context[V, M]) ValueOfUnsafe(v VertexID) *V { return &c.engine.col.Values[v] }

// OutEdges returns the vertex's current (possibly mutated) out-edges,
// materializing them from the CSR snapshot on first request. The
// returned slice must not be retained across supersteps if SetOutEdges
// is used. Programs that only need destinations and weights should
// prefer ForEachOut/OutDegree, which never materialize.
func (c *Context[V, M]) OutEdges() []graph.Edge { return c.engine.outEdges(c.id) }

// OutDegree returns the vertex's current out-degree without
// materializing the adjacency.
func (c *Context[V, M]) OutDegree() int {
	if c.engine.mutated[c.id] {
		return len(c.engine.adj[c.id])
	}
	return c.engine.csr.OutDegree(c.id)
}

// ForEachOut calls f for every current out-edge in adjacency order.
// For unmutated vertices it iterates the CSR snapshot without
// allocating.
func (c *Context[V, M]) ForEachOut(f func(dst VertexID, w float64)) {
	e := c.engine
	if e.mutated[c.id] {
		for _, ed := range e.adj[c.id] {
			f(ed.Dst, ed.W)
		}
		return
	}
	e.csr.ForEachOut(c.id, f)
}

// InEdges returns the vertex's in-edges for directed graphs
// (materialized from the pinned snapshot's transpose, immutable) and
// the out-edges for undirected graphs.
func (c *Context[V, M]) InEdges() []graph.Edge {
	if c.engine.inadj != nil {
		return c.engine.inEdges(c.id)
	}
	return c.engine.outEdges(c.id)
}

// Degree returns the vertex's original total degree in the input graph
// (d(v), or d_in+d_out for directed graphs).
func (c *Context[V, M]) Degree() int { return c.engine.deg[c.id] }

// SetOutEdges replaces this vertex's out-adjacency. Only the vertex
// itself may mutate its adjacency, which makes the operation race-free.
// The vertex's adjacency diverges from the CSR snapshot from here on;
// the input graph is untouched.
func (c *Context[V, M]) SetOutEdges(edges []graph.Edge) {
	c.engine.adj[c.id] = edges
	c.engine.mutated[c.id] = true
}

// SendTo sends m to vertex dst, delivered at the next superstep. With
// a combiner configured, messages to the same destination combine in
// the sender's outbox lane (the raw count still reaches the Stats).
func (c *Context[V, M]) SendTo(dst VertexID, m M) {
	c.sent++
	c.wire++
	c.engine.mbox.Send(c.worker, dst, m)
}

// SendToNeighbors sends m along every current out-edge. For unmutated
// vertices the destinations come straight from the CSR span and the
// mailbox broadcast path, skipping per-edge Edge materialization. In a
// pulled superstep the broadcast is not materialized at all: the
// message lands in the vertex's broadcast slot and every destination
// gathers it over its transpose span during delivery. A vertex whose
// adjacency diverged from the CSR snapshot (SetOutEdges) always
// pushes per edge — its transpose spans are stale, and the explicit
// sends keep it correct in either mode.
func (c *Context[V, M]) SendToNeighbors(m M) {
	e := c.engine
	if e.mutated[c.id] {
		for _, ed := range e.adj[c.id] {
			c.SendTo(ed.Dst, m)
		}
		return
	}
	if e.pullStep {
		c.sent += int64(e.csr.OutDegree(c.id))
		e.bcast.Set(c.id, m, e.cfg.Combiner)
		return
	}
	dsts := e.csr.OutSpan(c.id, e.scratch[c.worker])
	c.sent += int64(len(dsts))
	c.wire += int64(len(dsts))
	e.mbox.SendAll(c.worker, dsts, m)
}

// VoteToHalt deactivates the vertex; an incoming message reactivates it.
func (c *Context[V, M]) VoteToHalt() { c.halt = true }

// Aggregate contributes v to the named aggregator; the reduced value is
// visible from the next superstep.
func (c *Context[V, M]) Aggregate(name string, v any) { c.engine.aggregate(c.worker, name, v) }

// Agg returns the named aggregator's value as finalized at the end of
// the previous superstep.
func (c *Context[V, M]) Agg(name string) any { return c.engine.aggValue(name) }

// Global returns a master-published global (nil if unset).
func (c *Context[V, M]) Global(name string) any { return c.engine.globals[name] }

// Charge adds units of local work beyond the automatic accounting
// (1 + messages received + messages sent). Programs call it when they
// scan adjacency lists or do super-constant local computation.
func (c *Context[V, M]) Charge(units int64) { c.charge += units }

// Rand returns a deterministic per-(vertex, superstep) RNG.
func (c *Context[V, M]) Rand() *rand.Rand {
	seed := c.engine.cfg.Seed
	seed = seed*1000003 + int64(c.id)
	seed = seed*1000033 + int64(c.engine.superstep)
	return rand.New(rand.NewSource(seed))
}

// anyEngine erases the engine's type parameters for MasterContext.
type anyEngine struct {
	setGlobal func(string, any)
	agg       func(string) any
	activate  func()
	halt      func()
}

// MasterContext is handed to Master.BeforeSuperstep.
type MasterContext struct {
	engine    anyEngine
	superstep int
	pending   int
	frontier  int
}

// Superstep returns the superstep about to execute (0-based).
func (mc *MasterContext) Superstep() int { return mc.superstep }

// PendingMessages returns the number of messages awaiting delivery in
// the superstep about to execute.
func (mc *MasterContext) PendingMessages() int { return mc.pending }

// ActiveFrontier returns the number of vertices queued to compute in
// the superstep about to execute — active vertices plus vertices with
// mail, straight off the runtime worklists (an O(P) counter read).
// Multi-phase programs can use it for phase-switch decisions instead
// of maintaining a hand-rolled counting aggregator.
func (mc *MasterContext) ActiveFrontier() int { return mc.frontier }

// Agg returns the named aggregator's value finalized at the end of the
// previous superstep.
func (mc *MasterContext) Agg(name string) any { return mc.engine.agg(name) }

// SetGlobal publishes a value readable by every vertex via
// Context.Global during subsequent supersteps.
func (mc *MasterContext) SetGlobal(name string, v any) { mc.engine.setGlobal(name, v) }

// ActivateAll clears every vertex's halt flag for this superstep.
func (mc *MasterContext) ActivateAll() { mc.engine.activate() }

// Halt terminates the computation before this superstep executes.
func (mc *MasterContext) Halt() { mc.engine.halt() }
