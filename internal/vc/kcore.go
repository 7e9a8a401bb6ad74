package vc

import (
	"maps"

	"vcgraph/internal/bsp"
	"vcgraph/internal/graph"
	"vcgraph/internal/pregel"
	rt "vcgraph/internal/runtime"
)

// k-core decomposition, the distributed algorithm of Montresor et al.:
// every vertex maintains a coreness upper bound, initially its degree,
// and repeatedly lowers it to the largest k such that at least k
// neighbors still claim a bound ≥ k (a local h-index over the
// neighbors' estimates). The estimates decrease monotonically and
// converge to the exact coreness. A natural fit for the vertex-centric
// model — included as an extension beyond Table 1 to round out the
// workload set the paper's §3.8 discusses.

// KCoreResult holds the coreness of every vertex and the degeneracy
// (maximum coreness).
type KCoreResult struct {
	Core       []int32
	Degeneracy int32
	Stats      *bsp.Stats
}

type kcoreMsg struct {
	From VertexID
	Est  int32
}

// coreState keeps a vertex's coreness bound and the last estimate each
// distinct neighbor reported: in the vertex value (kcoreMap) or in
// packed stores (kcoreSlots). A neighbor joined by parallel edges
// counts once, in the h-index, the work charge, and StateUnits alike.
type coreState[V any] interface {
	est(v *V, id VertexID) int32
	setEst(v *V, id VertexID, est int32)
	// assume sets every neighbor's estimate to deg at superstep 0.
	assume(ctx *pregel.Context[V, kcoreMsg], deg int32)
	record(ctx *pregel.Context[V, kcoreMsg], m kcoreMsg)
	// count tallies the neighbor estimates into counts (see tally) and
	// returns the number of distinct neighbors.
	count(ctx *pregel.Context[V, kcoreMsg], counts []int32) int64
	units(v *V) int64
	clone(v V) V
	stores() packedStores // see vertexState
}

// kcoreProgram is zero-size when dense: the engine boxes it for free.
type kcoreProgram[V any, S coreState[V]] struct{ st S }

func (p kcoreProgram[V, S]) Init(*graph.Graph, VertexID) (v V) { return v }

// tally counts one neighbor estimate, capped at the vertex's own bound
// len(counts)-1; estimates of 0 count nothing.
func tally(counts []int32, e int32) {
	if own := int32(len(counts) - 1); e > own {
		e = own
	}
	if e > 0 {
		counts[e]++
	}
}

// hIndex returns the largest k such that at least k of the tallied
// neighbor estimates are ≥ k.
func hIndex(counts []int32) int32 {
	var cum int32
	for k := int32(len(counts) - 1); k >= 1; k-- {
		cum += counts[k]
		if cum >= k {
			return k
		}
	}
	return 0
}

func (p kcoreProgram[V, S]) Compute(ctx *pregel.Context[V, kcoreMsg], msgs []kcoreMsg) {
	v, id := ctx.Value(), ctx.ID()
	if ctx.Superstep() == 0 {
		est := int32(ctx.OutDegree())
		p.st.setEst(v, id, est)
		// Until a neighbor reports, assume the most optimistic bound.
		p.st.assume(ctx, int32(ctx.Degree()))
		ctx.SendToNeighbors(kcoreMsg{From: id, Est: est})
		return // everyone re-evaluates at superstep 1
	}
	for _, m := range msgs {
		p.st.record(ctx, m)
	}
	own := p.st.est(v, id)
	counts := make([]int32, own+1)
	ctx.Charge(p.st.count(ctx, counts))
	if newEst := hIndex(counts); newEst < own {
		p.st.setEst(v, id, newEst)
		ctx.SendToNeighbors(kcoreMsg{From: id, Est: newEst})
	}
	ctx.VoteToHalt()
}

func (p kcoreProgram[V, S]) StateUnits(v *V) int64 { return p.st.units(v) }

func (p kcoreProgram[V, S]) CloneValue(v V) V { return p.st.clone(v) }

func (p kcoreProgram[V, S]) SnapshotState() any { return p.st.stores().snapshot() }
func (p kcoreProgram[V, S]) RestoreState(s any) { p.st.stores().restore(s) }

// kcoreMap keeps the estimates in the vertex value, the neighbor
// estimates in a map keyed by neighbor ID: one lookup per message.
type kcoreMap struct{}

type kcoreValue struct {
	est    int32
	nbrEst map[VertexID]int32
}

func (kcoreMap) est(v *kcoreValue, _ VertexID) int32       { return v.est }
func (kcoreMap) setEst(v *kcoreValue, _ VertexID, e int32) { v.est = e }

func (kcoreMap) assume(ctx *pregel.Context[kcoreValue, kcoreMsg], deg int32) {
	v := ctx.Value()
	v.nbrEst = make(map[VertexID]int32, ctx.OutDegree())
	ctx.ForEachOut(func(dst VertexID, _ float64) {
		v.nbrEst[dst] = deg
	})
}

func (kcoreMap) record(ctx *pregel.Context[kcoreValue, kcoreMsg], m kcoreMsg) {
	ctx.Value().nbrEst[m.From] = m.Est
}

func (kcoreMap) count(ctx *pregel.Context[kcoreValue, kcoreMsg], counts []int32) int64 {
	ests := ctx.Value().nbrEst
	for _, e := range ests {
		tally(counts, e)
	}
	return int64(len(ests))
}

func (kcoreMap) units(v *kcoreValue) int64 { return int64(1 + len(v.nbrEst)) }
func (kcoreMap) stores() packedStores      { return nil }

func (kcoreMap) clone(v kcoreValue) kcoreValue {
	v.nbrEst = maps.Clone(v.nbrEst)
	return v
}

// kcoreSlots keeps the bounds in a per-vertex store and the neighbor
// estimates in a per-edge-slot store, both at ⌈log₂(Δ+1)⌉ bits: slot
// offs[v]+i holds the estimate of v's i-th out-neighbor. Only a
// neighbor's first slot is written, so parallel edges' slots stay 0
// and never count. Finding a slot scans the adjacency, O(deg) per
// message where the dense map pays one lookup: memory bought with time.
type kcoreSlots struct {
	ests, slots *rt.PackedInts
	offs        []int64
}

// kcoreSlotsValue holds the vertex's distinct-neighbor count, the
// dense map's length, for the work charge and StateUnits.
type kcoreSlotsValue struct{ nbrs int32 }

func newKCoreSlots(g *graph.Graph) kcoreSlots {
	n := g.N()
	offs := make([]int64, n+1)
	for v := 0; v < n; v++ {
		offs[v+1] = offs[v] + int64(g.Degree(VertexID(v)))
	}
	domain := uint64(maxDegree(g)) + 1
	return kcoreSlots{
		ests:  rt.NewPackedInts(n, domain),
		slots: rt.NewPackedInts(int(offs[n]), domain),
		offs:  offs,
	}
}

// slot returns the adjacency position of the first edge from ctx's
// vertex to nbr, or -1 when there is none.
func slot(ctx *pregel.Context[kcoreSlotsValue, kcoreMsg], nbr VertexID) int {
	idx, i := -1, 0
	ctx.ForEachOut(func(dst VertexID, _ float64) {
		if idx < 0 && dst == nbr {
			idx = i
		}
		i++
	})
	return idx
}

func (s kcoreSlots) est(_ *kcoreSlotsValue, id VertexID) int32 { return int32(s.ests.Get(int(id))) }
func (s kcoreSlots) setEst(_ *kcoreSlotsValue, id VertexID, e int32) {
	s.ests.Set(int(id), uint64(e))
}

func (s kcoreSlots) assume(ctx *pregel.Context[kcoreSlotsValue, kcoreMsg], deg int32) {
	base, i, nbrs := s.offs[ctx.ID()], 0, int32(0)
	ctx.ForEachOut(func(dst VertexID, _ float64) {
		if slot(ctx, dst) == i {
			s.slots.Set(int(base)+i, uint64(deg))
			nbrs++
		}
		i++
	})
	ctx.Value().nbrs = nbrs
}

func (s kcoreSlots) record(ctx *pregel.Context[kcoreSlotsValue, kcoreMsg], m kcoreMsg) {
	if i := slot(ctx, m.From); i >= 0 {
		s.slots.Set(int(s.offs[ctx.ID()])+i, uint64(m.Est))
	}
}

func (s kcoreSlots) count(ctx *pregel.Context[kcoreSlotsValue, kcoreMsg], counts []int32) int64 {
	id := ctx.ID()
	for i := s.offs[id]; i < s.offs[id+1]; i++ {
		tally(counts, int32(s.slots.Get(int(i))))
	}
	return int64(ctx.Value().nbrs)
}

func (kcoreSlots) units(v *kcoreSlotsValue) int64          { return int64(1 + v.nbrs) }
func (kcoreSlots) clone(v kcoreSlotsValue) kcoreSlotsValue { return v }
func (s kcoreSlots) stores() packedStores                  { return packedStores{s.ests, s.slots} }

// PrepareKCore prepares the coreness computation for every vertex of
// an undirected graph. The engine is constructed (and the snapshot
// pinned) now, under whatever lock the caller holds; the returned
// closure runs lock-free.
func PrepareKCore(g *graph.Graph, cfg Config) func() (*KCoreResult, error) {
	ecfg := engineCfg[kcoreMsg](cfg)
	if cfg.PackedState {
		st := newKCoreSlots(g)
		return prepareKCore(g, st, pregel.NewEngine[kcoreSlotsValue, kcoreMsg](g, kcoreProgram[kcoreSlotsValue, kcoreSlots]{st}, ecfg))
	}
	return prepareKCore(g, kcoreMap{}, pregel.NewEngine[kcoreValue, kcoreMsg](g, kcoreProgram[kcoreValue, kcoreMap]{}, ecfg))
}

func prepareKCore[V any](g *graph.Graph, st coreState[V], eng *pregel.Engine[V, kcoreMsg]) func() (*KCoreResult, error) {
	return func() (*KCoreResult, error) {
		res, err := eng.Run()
		if err != nil {
			return nil, err
		}
		out := &KCoreResult{Core: make([]int32, g.N()), Stats: res.Stats}
		for v := range res.Values {
			out.Core[v] = st.est(&res.Values[v], VertexID(v))
			out.Degeneracy = max(out.Degeneracy, out.Core[v])
		}
		return out, nil
	}
}
