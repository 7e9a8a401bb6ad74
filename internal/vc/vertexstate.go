package vc

import (
	"vcgraph/internal/graph"
	rt "vcgraph/internal/runtime"
)

// Where a program keeps its vertex state. Hash-Min, k-core and
// coloring are each one program over a vertex value type V and a state
// accessor. The dense accessor keeps the state in V, which the
// engine's Column checkpoints as dirty-set deltas. The packed accessor
// (Config.PackedState) keeps it in bit-packed stores outside the
// values (V is empty), which every checkpoint frame clones whole: a
// label, coreness estimate or color needs ⌈log₂ n⌉ or ⌈log₂(Δ+1)⌉
// bits, not a value slot. One program issues every send, halt vote and
// work charge, so a packed run is byte-identical to the dense one.
//
// Each program writes a vertex's whole starting state at superstep 0,
// which every vertex runs, so a restart from scratch needs no saved
// copy of the packed stores.

// vertexState reads and writes a vertex's state S: in its value v
// (dense) or in packed stores indexed by id.
type vertexState[V, S any] interface {
	get(v *V, id VertexID) S
	set(v *V, id VertexID, s S)
	// stores lists the packed stores a checkpoint clones; nil when the
	// state lives in the values.
	stores() packedStores
}

// inValue keeps the state in the vertex value itself (V = S).
type inValue[S any] struct{}

func (inValue[S]) get(v *S, _ VertexID) S    { return *v }
func (inValue[S]) set(v *S, _ VertexID, s S) { *v = s }
func (inValue[S]) stores() packedStores      { return nil }

// packedStores is the state a PackedState program keeps outside the
// engine's value array.
type packedStores []*rt.PackedInts

// snapshot clones every store for a checkpoint frame.
func (ps packedStores) snapshot() packedStores {
	c := make(packedStores, len(ps))
	for i, s := range ps {
		c[i] = s.Clone()
	}
	return c
}

// restore copies a snapshot back. A nil snapshot, the restart from
// scratch, leaves the stores alone: superstep 0 rewrites them.
func (ps packedStores) restore(snap any) {
	stores, _ := snap.(packedStores)
	for i, s := range stores {
		ps[i].CopyFrom(s)
	}
}

// SizeBytes lets checkpoint frames count the cloned stores (see
// runtime.ColumnFrame.Bytes).
func (ps packedStores) SizeBytes() int {
	b := 0
	for _, s := range ps {
		b += s.SizeBytes()
	}
	return b
}

// maxDegree returns Δ, which bounds coreness estimates and colors.
func maxDegree(g *graph.Graph) int {
	m := 0
	for v := 0; v < g.N(); v++ {
		m = max(m, g.Degree(VertexID(v)))
	}
	return m
}
