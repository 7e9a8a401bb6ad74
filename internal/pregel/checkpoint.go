package pregel

import (
	"maps"

	"vcgraph/internal/graph"
	rt "vcgraph/internal/runtime"
)

// Checkpointing: Pregel's fault-tolerance mechanism. When
// Config.CheckpointEvery is set, the engine snapshots the complete
// computation state (vertex values, halt flags, undelivered messages,
// mutated adjacency, globals, and — via runtime.StateSnapshotter —
// master state) at every k-th superstep barrier, retaining the last
// two generations (runtime.Checkpoints). A failure — a crash or a lost
// message batch scheduled by Config.Faults — rolls the computation
// back to the newest checkpoint that passes validation: a corrupted
// snapshot is detected at recovery time and skipped in favor of the
// previous generation (or a fresh restart). The redone supersteps stay
// in the Stats, as they would on a real cluster; Stats.Recovery
// itemizes the recovery cost.
//
// With Config.FullSnapshotEvery > 1 the engine additionally implements
// runtime.DeltaPolicy: between full snapshots it saves dirty-set delta
// frames covering only the vertices that computed, received mail, or
// were reactivated since the previous frame. Recovery then rebuilds a
// generation by restoring the newest readable full frame and applying
// its delta chain in order; a corrupt frame anywhere in a chain
// invalidates every frame above it (see runtime.Checkpoints).
//
// Vertex values go through the engine's runtime.Column, so programs
// whose V carries reference types (slices, maps) must implement
// runtime.ValueCloner, or recovery would alias live state. Messages
// are copied shallowly.

type checkpoint[V, M any] struct {
	// col carries the values and the program's private state. On a
	// delta frame col.IDs lists the dirty vertices, and halted, inbox
	// and rawRecv are indexed by position in col.IDs instead of by
	// VertexID; adj then holds the overrides of dirty mutated vertices.
	// The tiny whole-run state — globals and aggregators — is always
	// carried in full.
	col     rt.ColumnFrame[V]
	halted  []bool
	inbox   [][]M
	rawRecv []int64
	// adj records only the vertices whose adjacency diverged from the
	// CSR snapshot (SetOutEdges); everything else restores to the
	// immutable snapshot for free, so a checkpoint is O(mutations)
	// instead of O(m) in adjacency.
	adj        map[VertexID][]graph.Edge
	globals    map[string]any
	aggCurrent map[string]any
}

// Snapshot implements runtime.Policy: it deep-copies the state
// reachable at the current barrier. The driver owns the checkpoint
// store, the save cadence, and the corruption injection.
func (e *Engine[V, M]) Snapshot() *checkpoint[V, M] {
	n := e.g.N()
	ck := e.newCheckpoint(e.col.Full(), n)
	copy(ck.halted, e.halted)
	for v := 0; v < n; v++ {
		ck.inbox[v] = append([]M(nil), e.mbox.Inbox(VertexID(v))...)
		ck.rawRecv[v] = e.mbox.RawCount(VertexID(v))
	}
	for v, isMut := range e.mutated {
		if isMut {
			ck.adj[VertexID(v)] = append([]graph.Edge(nil), e.adj[v]...)
		}
	}
	return ck
}

// SnapshotDelta implements runtime.DeltaPolicy: it deep-copies only
// the vertices dirtied since the previous frame — computed, mailed, or
// reactivated — plus the full (small) globals/aggregator/master state;
// the column resets the dirty tracking so the next frame patches this
// one.
func (e *Engine[V, M]) SnapshotDelta() *checkpoint[V, M] {
	col := e.col.Delta()
	ck := e.newCheckpoint(col, len(col.IDs))
	for i, id := range col.IDs {
		ck.halted[i] = e.halted[id]
		ck.inbox[i] = append([]M(nil), e.mbox.Inbox(id)...)
		ck.rawRecv[i] = e.mbox.RawCount(id)
		if e.mutated[id] {
			ck.adj[id] = append([]graph.Edge(nil), e.adj[id]...)
		}
	}
	return ck
}

// newCheckpoint allocates a frame of k per-vertex slots around col and
// copies the whole-run globals and aggregators into it.
func (e *Engine[V, M]) newCheckpoint(col rt.ColumnFrame[V], k int) *checkpoint[V, M] {
	return &checkpoint[V, M]{
		col:        col,
		halted:     make([]bool, k),
		inbox:      make([][]M, k),
		rawRecv:    make([]int64, k),
		adj:        make(map[VertexID][]graph.Edge),
		globals:    maps.Clone(e.globals),
		aggCurrent: maps.Clone(e.aggCurrent),
	}
}

// RestoreDelta implements runtime.DeltaPolicy: it patches the dirty
// vertices of one delta frame onto the state already rebuilt from the
// chain so far. Adjacency overrides only accumulate between frames
// (mutated never clears mid-run), so applying them additively is exact.
func (e *Engine[V, M]) RestoreDelta(ck *checkpoint[V, M]) {
	e.col.Patch(ck.col)
	for i, id := range ck.col.IDs {
		e.halted[id] = ck.halted[i]
		e.mbox.LoadVertex(id, ck.inbox[i], ck.rawRecv[i])
	}
	e.restoreShared(ck)
}

// FrameBytes implements runtime.SnapshotSizer: a deterministic
// resident-byte estimate of a frame (full or delta) — element sizes
// times element counts. Boxed master/global/aggregator values are
// opaque and charged a flat per-entry cost on both frame kinds.
func (e *Engine[V, M]) FrameBytes(ck *checkpoint[V, M]) int64 {
	b := ck.col.Bytes() +
		int64(len(ck.halted)) +
		int64(len(ck.rawRecv))*8
	szM := rt.SizeOf[M]()
	for _, in := range ck.inbox {
		b += int64(len(in)) * szM
	}
	szE := rt.SizeOf[graph.Edge]()
	for _, a := range ck.adj {
		b += rt.MapEntryBytes + int64(len(a))*szE
	}
	b += int64(len(ck.globals)+len(ck.aggCurrent)) * rt.MapEntryBytes
	return b
}

// Restore implements runtime.Policy: it rolls the engine back to a
// checkpoint read by the driver's store (ok), or to a fresh start when
// no readable checkpoint exists (!ok).
func (e *Engine[V, M]) Restore(ck *checkpoint[V, M], step int, ok bool) {
	e.recoveries++
	e.resetAdjacency()
	if !ok {
		// No checkpoint yet: restart from the pristine Init-time values
		// the column kept — re-running Init here would read the mutable
		// graph mid-run.
		e.col.Reset()
		for v := 0; v < e.g.N(); v++ {
			e.halted[v] = false
			e.mbox.ResetVertex(VertexID(v))
		}
		for name, a := range e.aggs {
			e.aggCurrent[name] = a.Zero()
		}
		e.globals = make(map[string]any)
		e.rebuildWorklists()
		return
	}
	e.col.Load(ck.col)
	copy(e.halted, ck.halted)
	for v := 0; v < e.g.N(); v++ {
		e.mbox.LoadVertex(VertexID(v), ck.inbox[v], ck.rawRecv[v])
	}
	e.restoreShared(ck)
}

// restoreShared reapplies a frame's adjacency overrides, globals and
// aggregators, then rebuilds the worklists from the restored state.
func (e *Engine[V, M]) restoreShared(ck *checkpoint[V, M]) {
	for v, a := range ck.adj {
		e.adj[v] = append([]graph.Edge(nil), a...)
		e.mutated[v] = true
	}
	e.globals = maps.Clone(ck.globals)
	for k, v := range ck.aggCurrent {
		e.aggCurrent[k] = v
	}
	e.rebuildWorklists()
}

// resetAdjacency drops every mutated adjacency override, returning all
// vertices to the CSR snapshot. Materialized-but-unmutated caches are
// kept — their content equals the snapshot.
func (e *Engine[V, M]) resetAdjacency() {
	for v, isMut := range e.mutated {
		if isMut {
			e.adj[v] = nil
			e.mutated[v] = false
		}
	}
}

// rebuildWorklists reconstructs the active-vertex worklists from the
// restored halt flags and inboxes after a rollback.
func (e *Engine[V, M]) rebuildWorklists() {
	e.wl.Clear()
	for v := 0; v < e.g.N(); v++ {
		if !e.halted[v] || e.mbox.RawCount(VertexID(v)) > 0 {
			e.wl.Add(int(e.ownerOf[v]), VertexID(v))
		}
	}
}

// Recoveries reports how many failure recoveries the run performed.
func (e *Engine[V, M]) Recoveries() int { return e.recoveries }
