package vc

import (
	"vcgraph/internal/graph"
	"vcgraph/internal/pregel"
)

// Packed-state Hash-Min (Config.PackedState): the same message flow as
// hashMinProgram — superstep-0 structural fold then monotone min
// relaxation — with the component labels held in a bit-packed
// StateStore instead of the engine's value array (the vertex value is
// empty). A label is a vertex ID in [0, n), so it needs ⌈log₂ n⌉ bits
// rather than a 64-bit value slot. Because every send, halt vote, and
// work charge is issued under exactly the same conditions as the dense
// program, a packed run is byte-identical to the dense one — the
// differential suite holds the two together across the whole
// engine×direction×fault matrix.

type hashMinPackedProgram struct {
	labels StateStore
	// seed warm-starts from exported labels, as in hashMinProgram.
	seed []VertexID
}

func newHashMinPackedProgram(n int, seed []VertexID) *hashMinPackedProgram {
	domain := uint64(n)
	if domain == 0 {
		domain = 1
	}
	return &hashMinPackedProgram{labels: NewPackedInts(n, domain), seed: seed}
}

func (p *hashMinPackedProgram) initLabel(id VertexID) uint64 {
	if p.seed != nil {
		return uint64(p.seed[id])
	}
	return uint64(id)
}

func (p *hashMinPackedProgram) Init(g *graph.Graph, id VertexID) struct{} {
	p.labels.Set(int(id), p.initLabel(id))
	return struct{}{}
}

func (p *hashMinPackedProgram) Compute(ctx *pregel.Context[struct{}, VertexID], msgs []VertexID) {
	id := ctx.ID()
	min := VertexID(p.labels.Get(int(id)))
	if ctx.Superstep() == 0 {
		// min over {v} ∪ neighbors(v), then broadcast.
		ctx.ForEachOut(func(dst VertexID, w float64) {
			ctx.Charge(1)
			if dst < min {
				min = dst
			}
		})
		p.labels.Set(int(id), uint64(min))
		ctx.SendToNeighbors(min)
		ctx.VoteToHalt()
		return
	}
	u := min
	for _, m := range msgs {
		if m < u {
			u = m
		}
	}
	if u < min {
		p.labels.Set(int(id), uint64(u))
		ctx.SendToNeighbors(u)
	}
	ctx.VoteToHalt()
}

func (p *hashMinPackedProgram) StateUnits(v *struct{}) int64 { return 1 }

// FinishSerially mirrors hashMinProgram.FinishSerially over the packed
// store (the FCS optimization, Config.FCS).
func (p *hashMinPackedProgram) FinishSerially(fc *pregel.FinishContext[struct{}, VertexID]) int64 {
	var work int64
	queue := make([]VertexID, 0, len(fc.Active()))
	for _, v := range fc.Active() {
		min := VertexID(p.labels.Get(int(v)))
		for _, m := range fc.Inbox(v) {
			work++
			if m < min {
				min = m
			}
		}
		p.labels.Set(int(v), uint64(min))
		queue = append(queue, v)
	}
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		label := VertexID(p.labels.Get(int(v)))
		fc.ForEachOut(v, func(dst VertexID, _ float64) {
			work++
			if label < VertexID(p.labels.Get(int(dst))) {
				p.labels.Set(int(dst), uint64(label))
				queue = append(queue, dst)
			}
		})
	}
	return work
}

// SnapshotState/RestoreState implement runtime.StateSnapshotter: the
// engine's checkpoints clone only the (empty) value array, so the
// store rides along here. RestoreState(nil) is the pristine restart.
func (p *hashMinPackedProgram) SnapshotState() any { return p.labels.Clone() }

func (p *hashMinPackedProgram) RestoreState(s any) {
	if s == nil {
		for v := 0; v < p.labels.Len(); v++ {
			p.labels.Set(v, p.initLabel(VertexID(v)))
		}
		return
	}
	p.labels.CopyFrom(s.(StateStore))
}
