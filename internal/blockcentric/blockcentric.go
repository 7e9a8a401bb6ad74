// Package blockcentric implements a minimal subgraph-centric ("think
// like a graph", Giraph++ / NScale style) BSP engine: the graph is
// partitioned into blocks, and in each superstep a user program runs
// an arbitrary *sequential* computation over a whole block — seeing
// every block-local vertex and edge at once — then exchanges messages
// only across block boundaries. The paper's conclusion names this
// model as the main alternative when vertex-centric algorithms drown
// in supersteps or message volume; the package exists so that claim
// can be measured (see the block-centric connected components below
// and the comparison in internal/core).
package blockcentric

import (
	"math"

	"vcgraph/internal/bsp"
	"vcgraph/internal/graph"
	"vcgraph/internal/pregel"
	rt "vcgraph/internal/runtime"
)

// VertexID aliases graph.VertexID.
type VertexID = graph.VertexID

// Program is a block program: Init seeds per-vertex values;
// ComputeBlock runs once per block per superstep with all messages
// addressed to the block's vertices. The msgs map (and its slices) is
// owned by the engine and reused across supersteps; ComputeBlock must
// not retain it after returning.
type Program[V, M any] interface {
	Init(g *graph.Graph, id VertexID) V
	ComputeBlock(ctx *BlockContext[V, M], msgs map[VertexID][]M)
}

// Config controls a block-centric run.
type Config struct {
	// Blocks is the number of blocks (default 4). Blocks are also the
	// parallelism unit: each runs on its own goroutine per superstep.
	Blocks int
	// Partition assigns vertices to blocks (default pregel.PartitionRange,
	// which keeps blocks contiguous — the usual choice for this model).
	Partition pregel.Partitioner
	// MaxSupersteps caps the run (default 1 + 10·(n+64)).
	MaxSupersteps int
	// Snapshot, when non-nil, is an already-pinned CSR generation the
	// engine must run against instead of pinning the graph's current
	// one (the adaptive plan layer re-prepares engines mid-job; see
	// graph.PinSnapshot). The default partitioner then sizes from the
	// snapshot; a custom Partition must be derived from the same
	// snapshot.
	Snapshot *graph.CSR
	// Replan, when non-nil, is consulted at every superstep barrier;
	// returning true aborts the run with runtime.ErrHandoff and the
	// values at the barrier (see runtime.DriverConfig.Replan).
	Replan func(step, pending int) bool
	// Mode selects block-local pull: messages whose destination lives in
	// the sending block bypass the shared outbox and the sequential
	// boundary exchange entirely — each block folds them into its own
	// inbox during the parallel phase, before the boundary push.
	// Sent/Recv then count boundary traffic only (the quantity the BSP h
	// term models), and such supersteps are marked Pulled.
	// DirectionPull enables it for every block; DirectionPush for none.
	// DirectionAuto (the zero value) decides per block from the
	// boundary/local edge ratio (runtime.BlockLocalFractions): a block
	// pulls only when at least half of its out-edges stay inside the
	// block, where rerouting actually removes wire traffic. Programs
	// that only ever send across boundaries (the CC and SSSP block
	// programs here) are unaffected either way.
	Mode rt.DirectionMode
	// Pool, when non-nil, is a shared worker pool to lease block
	// goroutines from instead of building a private pool for the run.
	Pool *rt.Pool
	// RunEnv carries the checkpoint cadence, fault plan, cancellation
	// and job binding (see runtime.RunEnv). A checkpoint covers values,
	// halt flags and undelivered boundary messages; a delta frame
	// covers the blocks that computed or received boundary messages. A
	// duplicated boundary batch is detected by its sequence number and
	// discarded; FaultEvent.Worker/Lane address source/destination
	// blocks. Under a Job, Blocks is taken from the job's lease.
	rt.RunEnv
}

// ErrSuperstepCap mirrors pregel.ErrSuperstepCap. It aliases
// bsp.ErrSuperstepCap, the sentinel shared by every engine, so
// errors.Is works across engines.
var ErrSuperstepCap = bsp.ErrSuperstepCap

// Result of a block-centric run.
type Result[V any] struct {
	Values []V
	Stats  *bsp.Stats // Workers = #blocks; messages are inter-block only
}

// Engine executes a block Program.
type Engine[V, M any] struct {
	g      *graph.Graph
	csr    *graph.CSR
	prog   Program[V, M]
	cfg    Config
	owner  []int32
	blocks [][]VertexID
	halted []bool // per block

	// col holds the vertex values. Its dirty set marks every member of
	// a block that computes (values, halt flag, inbox consumption) and
	// every receiver of a boundary message; a delta frame covers the
	// blocks owning those vertices (see frameBlocks). The parallel
	// phase marks only each goroutine's own members; boundary delivery
	// marks receivers single-threaded.
	col rt.Column[V]

	inbox  []map[VertexID][]M // per block
	outbox [][]addr[M]        // per block (source)
	stats  *bsp.Stats
	driver *rt.Driver[*bcSnapshot[V, M]]

	// Block-local pull state. pullBlock says, per block, whether its
	// intra-block sends are rerouted (all true under DirectionPull, all
	// false under DirectionPush, decided per block from the local edge
	// fraction under DirectionAuto); anyPull caches whether any block
	// pulls (localOut is nil when none does). localOut buffers a pulling
	// block's sends to its own vertices during ComputeBlock; they are
	// folded into the block's inbox in the parallel phase, so localOut
	// is always empty at the barrier. inboxLocal counts how many of the
	// messages sitting in each inbox arrived locally, so Recv can be
	// reported boundary-only.
	pullBlock  []bool
	anyPull    bool
	localOut   [][]addr[M]
	inboxLocal []int64

	// scratch holds each block's span-decode buffers: ComputeBlock runs
	// one goroutine per block, and every program consumes one Out span
	// at a time, so one Scratch per block suffices. Nil-buffered (and
	// unused) on flat snapshots.
	scratch []*graph.Scratch
}

// bcSnapshot is one checkpoint generation: the values (and any
// program-private state) plus the per-block barrier state entering a
// superstep (boundary messages already delivered to inboxes). On a
// delta frame halted/inbox/inboxLocal cover only frameBlocks(col.IDs)
// and are indexed by position in that list instead of by block ID.
type bcSnapshot[V, M any] struct {
	col        rt.ColumnFrame[V]
	halted     []bool
	inbox      []map[VertexID][]M
	inboxLocal []int64
}

type addr[M any] struct {
	dst VertexID
	m   M
}

// NewEngine builds the engine and materializes the block partition:
// the prepare phase. It pins the graph's CSR snapshot and seeds every
// vertex value with prog.Init — every read of the mutable graph
// happens here, so a serving layer can construct engines under a graph
// read lock and Run them lock-free while writers mutate and republish.
func NewEngine[V, M any](g *graph.Graph, prog Program[V, M], cfg Config) *Engine[V, M] {
	if cfg.Job != nil {
		cfg.Blocks = cfg.Job.Workers()
	}
	if cfg.Blocks <= 0 {
		cfg.Blocks = 4
	}
	csr := cfg.Snapshot
	if csr == nil {
		csr = g.Pin()
	} else {
		g.PinSnapshot(csr)
	}
	n := csr.N()
	if cfg.MaxSupersteps <= 0 {
		cfg.MaxSupersteps = 1 + 10*(n+64)
	}
	var owner []int32
	if cfg.Partition != nil {
		owner = cfg.Partition(g, cfg.Blocks)
	} else {
		// The default range partition sizes from the pinned snapshot, not
		// the live graph, which may have grown past it.
		owner = rt.PartitionRangeN(n, cfg.Blocks)
	}
	e := &Engine[V, M]{
		g:      g,
		csr:    csr,
		prog:   prog,
		cfg:    cfg,
		owner:  owner,
		halted: make([]bool, cfg.Blocks),
		inbox:  make([]map[VertexID][]M, cfg.Blocks),
		outbox: make([][]addr[M], cfg.Blocks),
		stats:  &bsp.Stats{Workers: cfg.Blocks, N: n},
	}
	e.scratch = rt.GetScratches(cfg.Blocks)
	e.pullBlock = make([]bool, cfg.Blocks)
	switch cfg.Mode {
	case rt.DirectionPull:
		for b := range e.pullBlock {
			e.pullBlock[b] = true
		}
	case rt.DirectionPush:
		// all false
	default:
		// DirectionAuto: pull only where intra-block traffic dominates.
		for b, frac := range rt.BlockLocalFractions(csr, e.owner, cfg.Blocks) {
			e.pullBlock[b] = frac >= 0.5
		}
	}
	for _, p := range e.pullBlock {
		if p {
			e.anyPull = true
		}
	}
	if e.anyPull {
		e.localOut = make([][]addr[M], cfg.Blocks)
	}
	e.inboxLocal = make([]int64, cfg.Blocks)
	e.blocks = rt.GroupByOwner("blockcentric", e.owner, cfg.Blocks)
	for b := range e.inbox {
		e.inbox[b] = map[VertexID][]M{}
	}
	values := make([]V, n)
	for v := 0; v < n; v++ {
		values[v] = prog.Init(g, VertexID(v))
	}
	e.col = rt.NewColumn(prog, values, cfg.Faults != nil)
	return e
}

// Run executes to quiescence: all blocks halted with no boundary
// messages in flight. The superstep lifecycle — one-goroutine-per-block
// dispatch, fault firing, checkpoint cadence, rollback, halting, cost
// accounting — is owned by the shared runtime.Driver; this engine
// contributes the block-compute and boundary-delivery policy.
func (e *Engine[V, M]) Run() (*Result[V], error) {
	defer e.g.Unpin(e.csr)
	defer rt.PutScratches(e.scratch)
	e.driver = rt.NewDriver[*bcSnapshot[V, M]](e, e.stats, rt.DriverConfig{
		Name:     "blockcentric",
		Workers:  e.cfg.Blocks,
		MaxSteps: e.cfg.MaxSupersteps,
		CapErr:   ErrSuperstepCap,
		RunEnv:   e.cfg.RunEnv,
		Pool:     e.cfg.Pool,
		Replan:   e.cfg.Replan,
	})
	_, err := e.driver.Run()
	e.driver = nil
	return &Result[V]{Values: e.col.Values, Stats: e.stats}, err
}

// Quiescent implements runtime.Policy: every block halted with no
// boundary messages in flight.
func (e *Engine[V, M]) Quiescent(step, pending int) bool {
	if step == 0 || pending != 0 {
		return false
	}
	for _, h := range e.halted {
		if !h {
			return false
		}
	}
	return true
}

// Snapshot implements runtime.Policy: it deep-copies the barrier state
// (boundary messages already delivered to inboxes).
func (e *Engine[V, M]) Snapshot() *bcSnapshot[V, M] {
	ck := &bcSnapshot[V, M]{
		col:        e.col.Full(),
		halted:     append([]bool(nil), e.halted...),
		inbox:      make([]map[VertexID][]M, len(e.inbox)),
		inboxLocal: append([]int64(nil), e.inboxLocal...),
	}
	for b, in := range e.inbox {
		ck.inbox[b] = cloneInbox(in)
	}
	return ck
}

// SnapshotDelta implements runtime.DeltaPolicy: it deep-copies only
// the vertices dirtied since the previous frame and the blocks owning
// them — computed or mailed across a boundary — plus the full (small)
// program-private state; the column resets the dirty tracking so the
// next frame patches this one.
func (e *Engine[V, M]) SnapshotDelta() *bcSnapshot[V, M] {
	col := e.col.Delta()
	blocks := e.frameBlocks(col.IDs)
	ck := &bcSnapshot[V, M]{
		col:        col,
		halted:     make([]bool, len(blocks)),
		inbox:      make([]map[VertexID][]M, len(blocks)),
		inboxLocal: make([]int64, len(blocks)),
	}
	for i, b := range blocks {
		ck.halted[i] = e.halted[b]
		ck.inboxLocal[i] = e.inboxLocal[b]
		ck.inbox[i] = cloneInbox(e.inbox[b])
	}
	return ck
}

// frameBlocks lists, ascending, the blocks a delta frame with dirty
// vertices ids covers: their owners, plus every memberless block,
// which has no vertex to mark yet keeps a halt flag.
func (e *Engine[V, M]) frameBlocks(ids []VertexID) []int {
	hit := make([]bool, len(e.blocks))
	for _, v := range ids {
		hit[e.owner[v]] = true
	}
	var blocks []int
	for b, h := range hit {
		if h || len(e.blocks[b]) == 0 {
			blocks = append(blocks, b)
		}
	}
	return blocks
}

// RestoreDelta implements runtime.DeltaPolicy: it patches the dirty
// vertices and blocks of one delta frame onto the state already
// rebuilt from the chain so far. A block's members are exactly its
// writable vertices, and a computing block marks them all, so the
// value patches cover every write since the parent frame.
func (e *Engine[V, M]) RestoreDelta(ck *bcSnapshot[V, M]) {
	e.col.Patch(ck.col)
	for i, b := range e.frameBlocks(ck.col.IDs) {
		e.halted[b] = ck.halted[i]
		e.inboxLocal[b] = ck.inboxLocal[i]
		e.loadInbox(b, ck.inbox[i])
	}
}

// FrameBytes implements runtime.SnapshotSizer: a deterministic
// resident-byte estimate of a frame (full or delta).
func (e *Engine[V, M]) FrameBytes(ck *bcSnapshot[V, M]) int64 {
	b := ck.col.Bytes() +
		int64(len(ck.halted)) +
		int64(len(ck.inboxLocal))*8
	szM := rt.SizeOf[M]()
	for _, in := range ck.inbox {
		for _, ms := range in {
			b += rt.MapEntryBytes + int64(len(ms))*szM
		}
	}
	return b
}

// Restore implements runtime.Policy: it rolls the engine back to a
// checkpoint read by the driver's store (ok), or to a fresh start when
// no readable checkpoint exists (!ok).
func (e *Engine[V, M]) Restore(ck *bcSnapshot[V, M], step int, ok bool) {
	if ok {
		e.col.Load(ck.col)
		copy(e.halted, ck.halted)
		copy(e.inboxLocal, ck.inboxLocal)
	} else {
		// Restart from the pristine Init-time values: re-running Init
		// here would read the mutable graph mid-run.
		e.col.Reset()
		clear(e.halted)
		clear(e.inboxLocal)
	}
	for b := range e.inbox {
		if ok {
			e.loadInbox(b, ck.inbox[b])
		} else {
			clear(e.inbox[b])
		}
		e.outbox[b] = e.outbox[b][:0]
		if e.localOut != nil {
			e.localOut[b] = e.localOut[b][:0]
		}
	}
}

// cloneInbox deep-copies one block's inbox for a checkpoint frame.
func cloneInbox[M any](in map[VertexID][]M) map[VertexID][]M {
	out := make(map[VertexID][]M, len(in))
	for v, ms := range in {
		out[v] = append([]M(nil), ms...)
	}
	return out
}

// loadInbox replaces block b's inbox with a copy of a frame's.
func (e *Engine[V, M]) loadInbox(b int, in map[VertexID][]M) {
	clear(e.inbox[b])
	for v, ms := range in {
		e.inbox[b][v] = append([]M(nil), ms...)
	}
}

// Superstep implements runtime.Policy: compute every awake block in
// parallel (one persistent goroutine per block), then deliver boundary
// messages sequentially — where a src->dst batch can be lost in transit
// or redelivered.
func (e *Engine[V, M]) Superstep(superstep int, ss *bsp.SuperstepStats) (int, error) {
	nb := e.cfg.Blocks
	ss.Pulled = e.anyPull
	// Frontier: members of the blocks that will wake this superstep —
	// the block-granular activity signal the adaptive planner reads.
	for b := 0; b < nb; b++ {
		if !(e.halted[b] && len(e.inbox[b]) == 0 && superstep > 0) {
			ss.Frontier += int64(len(e.blocks[b]))
		}
	}
	e.driver.Lease().Run(func(b int) {
		msgs := e.inbox[b]
		if e.halted[b] && len(msgs) == 0 && superstep > 0 {
			return
		}
		// Computing mutates the block's values, halt flag, and inbox;
		// each goroutine marks only its own members, so this is
		// race-free.
		for _, v := range e.blocks[b] {
			e.col.Mark(v)
		}
		e.halted[b] = false
		ss.Active[b] = int64(len(e.blocks[b]))
		for _, ms := range msgs {
			ss.Recv[b] += int64(len(ms))
		}
		// Locally-pulled messages never crossed a block boundary; Recv
		// reports boundary traffic only (the h term the cost model
		// charges). inboxLocal is zero when pull is off.
		ss.Recv[b] -= e.inboxLocal[b]
		e.inboxLocal[b] = 0
		ctx := &BlockContext[V, M]{engine: e, block: b, superstep: superstep}
		e.prog.ComputeBlock(ctx, msgs)
		// Reuse the inbox map's buckets across supersteps instead of
		// allocating a fresh map (ComputeBlock must not retain msgs).
		clear(msgs)
		if ctx.halt {
			e.halted[b] = true
		}
		ss.Work[b] = ctx.work + 1
		ss.Sent[b] = ctx.sent
		if e.pullBlock[b] {
			// Block-local pull: fold this block's sends to itself into
			// its own (just-cleared) inbox right here in the parallel
			// phase — no shared outbox, no boundary exchange, no
			// in-transit window for fault injection. Each block touches
			// only inbox[b], so the concurrent folds are race-free.
			for _, am := range e.localOut[b] {
				msgs[am.dst] = append(msgs[am.dst], am.m)
			}
			e.inboxLocal[b] = int64(len(e.localOut[b]))
			e.localOut[b] = e.localOut[b][:0]
		}
	})

	// Deliver boundary messages. Locally-pulled deliveries still count
	// toward pending — a halted block with fresh local mail must wake,
	// and Quiescent must not declare the run drained while any inbox
	// holds messages.
	inj := e.driver.Injector()
	pending := 0
	for b := 0; b < nb; b++ {
		pending += int(e.inboxLocal[b])
	}
	for src := 0; src < nb; src++ {
		var drop []bool
		if inj != nil {
			for dst := 0; dst < nb; dst++ {
				switch inj.LaneFault(superstep, src, dst) {
				case rt.FaultDropLane:
					// This src->dst batch is lost in transit; its
					// messages cannot be reconstructed, so the run
					// rolls back at the next barrier.
					if drop == nil {
						drop = make([]bool, nb)
					}
					drop[dst] = true
					e.driver.LoseBatch()
				case rt.FaultDupLane:
					// The replayed batch carries a stale sequence
					// number and is discarded; delivery stays
					// exactly-once (counted by the injector).
				}
			}
		}
		for _, am := range e.outbox[src] {
			dst := int(e.owner[am.dst])
			if drop != nil && drop[dst] {
				continue
			}
			e.inbox[dst][am.dst] = append(e.inbox[dst][am.dst], am.m)
			e.col.Mark(am.dst)
			pending++
		}
		e.outbox[src] = e.outbox[src][:0]
	}
	return pending, nil
}

// BlockContext is the per-block view handed to ComputeBlock.
type BlockContext[V, M any] struct {
	engine    *Engine[V, M]
	block     int
	superstep int
	sent      int64
	work      int64
	halt      bool
}

// Superstep returns the current superstep (0-based).
func (c *BlockContext[V, M]) Superstep() int { return c.superstep }

// Block returns the IDs of the block's vertices.
func (c *BlockContext[V, M]) Block() []VertexID { return c.engine.blocks[c.block] }

// Value returns a pointer to any vertex's value. Writing a remote
// vertex's value is forbidden (and racy); the engine only hands each
// block its own vertices via Block(), and programs must message remote
// vertices instead.
func (c *BlockContext[V, M]) Value(v VertexID) *V { return &c.engine.col.Values[v] }

// Local reports whether v belongs to this block.
func (c *BlockContext[V, M]) Local(v VertexID) bool { return int(c.engine.owner[v]) == c.block }

// OutEdges returns v's adjacency as []Edge, materialized fresh from
// the pinned CSR snapshot (never the live graph). Block programs'
// sequential sweeps should prefer the CSR spans below, which avoid the
// per-call allocation and the 32-byte Edge layout.
func (c *BlockContext[V, M]) OutEdges(v VertexID) []graph.Edge {
	csr := c.engine.csr
	d := csr.OutDegree(v)
	if d == 0 {
		return nil
	}
	return csr.AppendOutEdges(make([]graph.Edge, 0, d), v)
}

// Out returns v's out-neighbor span from the CSR snapshot. The slice
// aliases the snapshot (or, on a packed snapshot, the block's decode
// buffer — the next Out call in this block overwrites it) and must not
// be modified.
func (c *BlockContext[V, M]) Out(v VertexID) []VertexID {
	return c.engine.csr.OutSpan(v, c.engine.scratch[c.block])
}

// OutWeights returns v's out-edge weight span aligned with Out(v), or
// nil when the graph is unweighted.
func (c *BlockContext[V, M]) OutWeights(v VertexID) []float64 { return c.engine.csr.OutWeights(v) }

// OutDegree returns v's out-degree.
func (c *BlockContext[V, M]) OutDegree(v VertexID) int { return c.engine.csr.OutDegree(v) }

// ForEachOut calls f for every out-edge of v in adjacency order,
// without allocating.
func (c *BlockContext[V, M]) ForEachOut(v VertexID, f func(dst VertexID, w float64)) {
	c.engine.csr.ForEachOut(v, f)
}

// SendTo sends m to a (typically remote) vertex for the next superstep.
// When block-local pull is enabled for the sending block (see
// Config.Mode) a message to a vertex of that block is buffered locally
// and folded into the block's own inbox in the parallel phase; it is
// not counted in Sent, which then reports boundary traffic only. Within
// one destination
// vertex all same-source-block messages are either all local or all
// boundary, so each slice's internal order matches push mode — only the
// local-before-boundary interleaving differs (visible solely to
// order-sensitive float folds such as PageRank's sum, which stays
// deterministic and equal up to rounding).
func (c *BlockContext[V, M]) SendTo(dst VertexID, m M) {
	e := c.engine
	if e.pullBlock[c.block] && int(e.owner[dst]) == c.block {
		e.localOut[c.block] = append(e.localOut[c.block], addr[M]{dst: dst, m: m})
		return
	}
	c.sent++
	e.outbox[c.block] = append(e.outbox[c.block], addr[M]{dst: dst, m: m})
}

// Charge records units of sequential work done inside the block.
func (c *BlockContext[V, M]) Charge(units int64) { c.work += units }

// VoteToHalt deactivates the block; boundary messages reactivate it.
func (c *BlockContext[V, M]) VoteToHalt() { c.halt = true }

// --- Block-centric connected components ---

// ccProgram: each block labels its internal structure with full
// sequential BFS sweeps per superstep (minimum label within each
// block-local region), then pushes changed labels over boundary edges
// only. On a path split into B blocks this takes Θ(B) supersteps,
// versus Θ(n) for vertex-centric Hash-Min. seed, when non-nil,
// replaces the identity labels at Init (see CCProgramSeeded).
type ccProgram struct{ seed []VertexID }

func (p ccProgram) Init(g *graph.Graph, id VertexID) VertexID {
	if p.seed != nil {
		return p.seed[id]
	}
	return id
}

func (ccProgram) ComputeBlock(ctx *BlockContext[VertexID, VertexID], msgs map[VertexID][]VertexID) {
	// Absorb boundary updates.
	dirty := make([]VertexID, 0, len(msgs))
	for v, ms := range msgs {
		for _, m := range ms {
			ctx.Charge(1)
			if m < *ctx.Value(v) {
				*ctx.Value(v) = m
				dirty = append(dirty, v)
			}
		}
	}
	if ctx.Superstep() == 0 {
		dirty = append(dirty, ctx.Block()...)
	}
	// Local min-label BFS from every updated vertex, confined to the
	// block.
	changed := map[VertexID]bool{}
	queue := dirty
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		label := *ctx.Value(v)
		for _, u := range ctx.Out(v) {
			ctx.Charge(1)
			if !ctx.Local(u) {
				continue
			}
			if label < *ctx.Value(u) {
				*ctx.Value(u) = label
				queue = append(queue, u)
				changed[u] = true
			}
		}
		if ctx.Superstep() == 0 {
			changed[v] = true
		}
	}
	for _, v := range dirty {
		changed[v] = true
	}
	// Push labels over boundary edges for every changed vertex.
	for v := range changed {
		label := *ctx.Value(v)
		for _, u := range ctx.Out(v) {
			if !ctx.Local(u) {
				ctx.SendTo(u, label)
			}
		}
	}
	ctx.VoteToHalt()
}

// CCResult mirrors vc.CCResult for the block-centric algorithm.
type CCResult struct {
	Color []VertexID
	Stats *bsp.Stats
}

// PrepareConnectedComponents prepares block-centric min-label
// connected components. Graph reads happen now (NewEngine); the
// returned closure runs lock-free on the pinned snapshot.
func PrepareConnectedComponents(g *graph.Graph, cfg Config) func() (*CCResult, error) {
	eng := NewEngine[VertexID, VertexID](g, ccProgram{}, cfg)
	return func() (*CCResult, error) {
		res, err := eng.Run()
		if err != nil {
			return nil, err
		}
		return &CCResult{Color: res.Values, Stats: res.Stats}, nil
	}
}

// --- Block-centric single-source shortest paths ---

// ssspProgram: each block runs a sequential label-correcting
// relaxation to a fixpoint inside the block per superstep, then offers
// dist+w over boundary edges for vertices whose distance improved.
// Min-relaxation is order-independent, so values are byte-identical
// across schedules and fault plans. At superstep 0 every block vertex
// holding a finite tentative distance seeds the local relaxation and
// offers over boundary edges. On a cold start only the source is
// finite; a warm restart from seed (see SSSPProgramSeeded) re-announces
// the whole reached frontier.
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

func (p ssspProgram) ComputeBlock(ctx *BlockContext[float64, float64], msgs map[VertexID][]float64) {
	// Absorb boundary offers.
	changed := map[VertexID]bool{}
	dirty := make([]VertexID, 0, len(msgs))
	for v, ms := range msgs {
		for _, d := range ms {
			ctx.Charge(1)
			if d < *ctx.Value(v) {
				*ctx.Value(v) = d
				changed[v] = true
			}
		}
		if changed[v] {
			dirty = append(dirty, v)
		}
	}
	if ctx.Superstep() == 0 {
		for _, v := range ctx.Block() {
			if !math.IsInf(*ctx.Value(v), 1) {
				dirty = append(dirty, v)
				changed[v] = true
			}
		}
	}
	// Relax to a block-local fixpoint.
	queue := dirty
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		d := *ctx.Value(v)
		dsts := ctx.Out(v)
		ws := ctx.OutWeights(v)
		for i, u := range dsts {
			ctx.Charge(1)
			if !ctx.Local(u) {
				continue
			}
			w := 1.0
			if ws != nil {
				w = ws[i]
			}
			if nd := d + w; nd < *ctx.Value(u) {
				*ctx.Value(u) = nd
				changed[u] = true
				queue = append(queue, u)
			}
		}
	}
	// Offer improved distances over boundary edges.
	for v := range changed {
		d := *ctx.Value(v)
		dsts := ctx.Out(v)
		ws := ctx.OutWeights(v)
		for i, u := range dsts {
			if !ctx.Local(u) {
				w := 1.0
				if ws != nil {
					w = ws[i]
				}
				ctx.SendTo(u, d+w)
			}
		}
	}
	ctx.VoteToHalt()
}

// SSSPResult carries block-centric shortest-path distances.
type SSSPResult struct {
	Dist  []float64
	Stats *bsp.Stats
}

// PrepareSSSP prepares block-centric single-source shortest paths;
// unreachable vertices keep +Inf, matching seq.Dijkstra. The two
// phases are those of PrepareConnectedComponents.
func PrepareSSSP(g *graph.Graph, src VertexID, cfg Config) func() (*SSSPResult, error) {
	eng := NewEngine[float64, float64](g, ssspProgram{src: src}, cfg)
	return func() (*SSSPResult, error) {
		res, err := eng.Run()
		if err != nil {
			return nil, err
		}
		return &SSSPResult{Dist: res.Values, Stats: res.Stats}, nil
	}
}

// --- Block-centric PageRank ---

// prProgram runs K iterations of power iteration, Pregel-style over
// the block abstraction: every superstep each block folds the rank
// contributions addressed to its vertices and sends the next round of
// shares (SendTo routes intra-block messages through the same inbox,
// keeping the summation order deterministic: blocks iterate their
// vertices in ascending order and inboxes accumulate in source-block
// order). Matches seq.PageRank element-wise, including the dangling
// leak.
type prProgram struct {
	n     int
	k     int
	alpha float64
}

func (p prProgram) Init(g *graph.Graph, id VertexID) float64 { return 1 / float64(p.n) }

func (p prProgram) ComputeBlock(ctx *BlockContext[float64, float64], msgs map[VertexID][]float64) {
	s := ctx.Superstep()
	base := (1 - p.alpha) / float64(p.n)
	for _, v := range ctx.Block() {
		if s > 0 {
			r := base
			for _, m := range msgs[v] {
				ctx.Charge(1)
				r += m
			}
			*ctx.Value(v) = r
		}
		if s < p.k {
			out := ctx.Out(v)
			if len(out) == 0 {
				continue // dangling: rank leaks to the teleport term
			}
			share := p.alpha * *ctx.Value(v) / float64(len(out))
			for _, u := range out {
				ctx.Charge(1)
				ctx.SendTo(u, share)
			}
		}
	}
	if s >= p.k {
		ctx.VoteToHalt()
	}
}

// PRResult carries block-centric PageRank scores.
type PRResult struct {
	Ranks []float64
	Stats *bsp.Stats
}

// PreparePageRank prepares K iterations of block-centric power
// iteration with teleport probability (1-alpha), comparable
// element-wise to seq.PageRank. The two phases are those of
// PrepareConnectedComponents.
func PreparePageRank(g *graph.Graph, alpha float64, k int, cfg Config) func() (*PRResult, error) {
	eng := NewEngine[float64, float64](g, prProgram{n: g.N(), k: k, alpha: alpha}, cfg)
	return func() (*PRResult, error) {
		res, err := eng.Run()
		if err != nil {
			return nil, err
		}
		return &PRResult{Ranks: res.Values, Stats: res.Stats}, nil
	}
}

// --- Seeded programs for the adaptive plan layer ---
//
// Live engine handoff (internal/plan) exports vertex values at a
// superstep barrier and resumes them here. Warm restarts re-announce
// state instead of replaying lost inboxes: min-fold algorithms
// re-offer every finite label/distance at superstep 0, which dominates
// any in-flight message from the previous engine, and fixed-iteration
// PageRank re-sends shares for the current iterate.

// CCProgramSeeded warm-starts block-centric min-label components from
// exported labels (nil seed is the identity cold start). The native
// superstep-0 whole-block sweep already re-broadcasts every label over
// boundary edges, so only Init differs.
func CCProgramSeeded(seed []VertexID) Program[VertexID, VertexID] {
	return ccProgram{seed: seed}
}

// SSSPProgramSeeded warm-starts block-centric SSSP from exported
// tentative distances (+Inf for unreached vertices; nil seed is the
// source-only cold start).
func SSSPProgramSeeded(src VertexID, seed []float64) Program[float64, float64] {
	return ssspProgram{src: src, seed: seed}
}

// prCanonical is fixed-iteration PageRank with the Pregel variant's
// exact arithmetic: fold rank = (1-alpha)/n + alpha*sum(msgs), send
// share = rank/outdeg (the alpha factor applied at the receiver, not
// the sender as native prProgram does). Under push mode with a range
// partition the inbox fold order is ascending source ID — the same
// order as single-worker Pregel's combiner — so segments are
// bit-compatible across the two engines. Runs k folds from the seed
// ranks (nil means uniform 1/n).
type prCanonical struct {
	n     int
	k     int
	alpha float64
	seed  []float64
}

func (p prCanonical) Init(g *graph.Graph, id VertexID) float64 {
	if p.seed != nil {
		return p.seed[id]
	}
	return 1 / float64(p.n)
}

func (p prCanonical) ComputeBlock(ctx *BlockContext[float64, float64], msgs map[VertexID][]float64) {
	s := ctx.Superstep()
	for _, v := range ctx.Block() {
		if s > 0 {
			var sum float64
			for _, m := range msgs[v] {
				ctx.Charge(1)
				sum += m
			}
			*ctx.Value(v) = (1-p.alpha)/float64(p.n) + p.alpha*sum
		}
		if s < p.k {
			out := ctx.Out(v)
			if len(out) == 0 {
				continue // dangling: rank leaks to the teleport term
			}
			share := *ctx.Value(v) / float64(len(out))
			for _, u := range out {
				ctx.Charge(1)
				ctx.SendTo(u, share)
			}
		}
	}
	if s >= p.k {
		ctx.VoteToHalt()
	}
}

// PageRankProgramCanonical builds the Pregel-arithmetic fixed-K
// PageRank program for engine handoff. Callers must pin
// DirectionPush: per-block pull would reroute intra-block shares
// around the inbox and change the fold order.
func PageRankProgramCanonical(n, k int, alpha float64, seed []float64) Program[float64, float64] {
	return prCanonical{n: n, k: k, alpha: alpha, seed: seed}
}
