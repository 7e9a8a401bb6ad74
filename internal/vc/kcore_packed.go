package vc

import (
	"vcgraph/internal/graph"
	"vcgraph/internal/pregel"
)

// Packed-state k-core (Config.PackedState): the dense program's
// per-vertex nbrEst map — the dominant memory term, ~50 bytes per
// directed edge — becomes a single bit-packed edge-slot store: entry
// offs[v]+i holds the last estimate received from v's i-th
// out-neighbor, at ⌈log₂(Δ+1)⌉ bits. The coreness bounds themselves
// live in a second packed store. The message flow (superstep-0
// optimistic init + broadcast, then h-index recomputation on receipt)
// is exactly the dense program's, so runs are byte-identical — but the
// slot store indexes estimates by adjacency position where the dense
// map keys them by neighbor ID, so the two agree only on simple
// graphs (the map dedupes parallel edges; the adjacency does not).

type kcorePackedValue struct {
	// deg mirrors the dense program's len(nbrEst) so StateUnits — and
	// with it the state-balance metric — stays identical.
	deg int32
}

type kcorePackedProgram struct {
	est         StateStore // coreness bound per vertex, domain Δ+1
	slots       StateStore // per-out-edge-slot neighbor estimate, domain Δ+1
	offs        []int64    // per-vertex base index into slots
	pristineEst StateStore // Init-time est for checkpoint-free restarts
}

func newKCorePackedProgram(g *graph.Graph) *kcorePackedProgram {
	n := g.N()
	offs := make([]int64, n+1)
	maxDeg := 0
	for v := 0; v < n; v++ {
		d := g.Degree(VertexID(v))
		offs[v+1] = offs[v] + int64(d)
		if d > maxDeg {
			maxDeg = d
		}
	}
	domain := uint64(maxDeg) + 1
	p := &kcorePackedProgram{
		est:   NewPackedInts(n, domain),
		slots: NewPackedInts(int(offs[n]), domain),
		offs:  offs,
	}
	for v := 0; v < n; v++ {
		p.est.Set(v, uint64(g.Degree(VertexID(v))))
	}
	p.pristineEst = p.est.Clone()
	return p
}

func (p *kcorePackedProgram) Init(g *graph.Graph, id VertexID) kcorePackedValue {
	return kcorePackedValue{deg: int32(g.Degree(id))}
}

// slotIndex returns the adjacency position of neighbor `from` in v's
// out-edges (−1 when absent, e.g. a stray redelivery).
func slotIndex(ctx *pregel.Context[kcorePackedValue, kcoreMsg], from VertexID) int {
	idx, i := -1, 0
	ctx.ForEachOut(func(dst VertexID, _ float64) {
		if idx < 0 && dst == from {
			idx = i
		}
		i++
	})
	return idx
}

// hIndexSlots is hIndex over the slot range [base, base+deg).
func (p *kcorePackedProgram) hIndexSlots(own int32, base int64, deg int32) int32 {
	counts := make([]int32, own+1)
	for i := int64(0); i < int64(deg); i++ {
		e := int32(p.slots.Get(int(base + i)))
		if e > own {
			e = own
		}
		if e > 0 {
			counts[e]++
		}
	}
	var cum int32
	for k := own; k >= 1; k-- {
		cum += counts[k]
		if cum >= k {
			return k
		}
	}
	return 0
}

func (p *kcorePackedProgram) Compute(ctx *pregel.Context[kcorePackedValue, kcoreMsg], msgs []kcoreMsg) {
	id := ctx.ID()
	base := p.offs[id]
	if ctx.Superstep() == 0 {
		// Until a neighbor reports, assume the most optimistic bound.
		deg := uint64(ctx.Degree())
		i := base
		ctx.ForEachOut(func(dst VertexID, _ float64) {
			p.slots.Set(int(i), deg)
			i++
		})
		ctx.SendToNeighbors(kcoreMsg{From: id, Est: int32(p.est.Get(int(id)))})
		return // everyone re-evaluates at superstep 1
	}
	for _, m := range msgs {
		if idx := slotIndex(ctx, m.From); idx >= 0 {
			p.slots.Set(int(base+int64(idx)), uint64(m.Est))
		}
	}
	deg := ctx.Value().deg
	ctx.Charge(int64(deg))
	own := int32(p.est.Get(int(id)))
	if newEst := p.hIndexSlots(own, base, deg); newEst < own {
		p.est.Set(int(id), uint64(newEst))
		ctx.SendToNeighbors(kcoreMsg{From: id, Est: newEst})
	}
	ctx.VoteToHalt()
}

func (p *kcorePackedProgram) StateUnits(v *kcorePackedValue) int64 { return int64(1 + v.deg) }

// kcorePackedSnap is one checkpoint generation of the program-private
// stores.
type kcorePackedSnap struct {
	est   StateStore
	slots StateStore
}

// SizeBytes lets checkpoint frames count the cloned stores (see
// runtime.ColumnFrame.Bytes).
func (s kcorePackedSnap) SizeBytes() int { return s.est.SizeBytes() + s.slots.SizeBytes() }

// SnapshotState/RestoreState implement runtime.StateSnapshotter (the
// dense program carries its state in the value array and rides the
// engine's CloneValue path instead). RestoreState(nil) resets to the
// Init-time bounds; the slot store needs no reset because the
// superstep-0 restart rewrites every slot.
func (p *kcorePackedProgram) SnapshotState() any {
	return kcorePackedSnap{est: p.est.Clone(), slots: p.slots.Clone()}
}

func (p *kcorePackedProgram) RestoreState(s any) {
	if s == nil {
		p.est.CopyFrom(p.pristineEst)
		return
	}
	snap := s.(kcorePackedSnap)
	p.est.CopyFrom(snap.est)
	p.slots.CopyFrom(snap.slots)
}
