package vc

import (
	"vcgraph/internal/bsp"
	"vcgraph/internal/graph"
	"vcgraph/internal/pregel"
	rt "vcgraph/internal/runtime"
)

// CCResult holds a connected-components labeling: Color[v] is the
// smallest vertex ID in v's component (the paper's component "color").
type CCResult struct {
	Color []VertexID
	Stats *bsp.Stats
}

// hashMinProgram keeps each vertex's label in a VertexID value (dense,
// L = inValue) or in one packed store of ⌈log₂ n⌉-bit entries
// (packedLabels).
type hashMinProgram[V any, L vertexState[V, VertexID]] struct {
	labels L
	// seed warm-starts the run from exported labels (adaptive plan
	// layer handoff); nil means the identity cold start. Superstep 0
	// still folds structural neighbor IDs and re-broadcasts — both are
	// monotone min steps, so a warm restart reaches the same fixpoint
	// as the unswitched run.
	seed []VertexID
}

type packedLabels struct{ *rt.PackedInts }

func newPackedLabels(n int) packedLabels { return packedLabels{rt.NewPackedInts(n, max(uint64(n), 1))} }

func (s packedLabels) get(_ *struct{}, id VertexID) VertexID { return VertexID(s.Get(int(id))) }
func (s packedLabels) set(_ *struct{}, id, l VertexID)       { s.Set(int(id), uint64(l)) }
func (s packedLabels) stores() packedStores                  { return packedStores{s.PackedInts} }

func (p hashMinProgram[V, L]) Init(*graph.Graph, VertexID) (v V) { return v }

func (p hashMinProgram[V, L]) Compute(ctx *pregel.Context[V, VertexID], msgs []VertexID) {
	v, id := ctx.Value(), ctx.ID()
	if ctx.Superstep() == 0 {
		// min over {v} ∪ neighbors(v), then broadcast.
		label := id
		if p.seed != nil {
			label = p.seed[id]
		}
		ctx.ForEachOut(func(dst VertexID, w float64) {
			ctx.Charge(1)
			if dst < label {
				label = dst
			}
		})
		p.labels.set(v, id, label)
		ctx.SendToNeighbors(label)
		ctx.VoteToHalt()
		return
	}
	label := p.labels.get(v, id)
	u := label
	for _, m := range msgs {
		u = min(u, m)
	}
	if u < label {
		p.labels.set(v, id, u)
		ctx.SendToNeighbors(u)
	}
	ctx.VoteToHalt()
}

func (p hashMinProgram[V, L]) StateUnits(*V) int64 { return 1 }

func (p hashMinProgram[V, L]) SnapshotState() any { return p.labels.stores().snapshot() }
func (p hashMinProgram[V, L]) RestoreState(s any) { p.labels.stores().restore(s) }

// minLabel is Hash-Min's combiner: only the smallest label counts.
func minLabel(a, b VertexID) VertexID { return min(a, b) }

// FinishSerially completes Hash-Min with a sequential min-label
// relaxation seeded from the still-active frontier (the FCS
// optimization of Salihoglu & Widom, enabled via Config.FCS).
func (p hashMinProgram[V, L]) FinishSerially(fc *pregel.FinishContext[V, VertexID]) int64 {
	var work int64
	queue := make([]VertexID, 0, len(fc.Active()))
	for _, v := range fc.Active() {
		val := fc.Value(v)
		label := p.labels.get(val, v)
		for _, m := range fc.Inbox(v) {
			work++
			label = min(label, m)
		}
		p.labels.set(val, v, label)
		queue = append(queue, v)
	}
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		label := p.labels.get(fc.Value(v), v)
		fc.ForEachOut(v, func(dst VertexID, _ float64) {
			work++
			if w := fc.Value(dst); label < p.labels.get(w, dst) {
				p.labels.set(w, dst, label)
				queue = append(queue, dst)
			}
		})
	}
	return work
}

// PrepareHashMinCC prepares the Hash-Min connected components
// algorithm of the Pregel paper (Table 1 row 3: O(δ) supersteps, O(mδ)
// work, vs. the O(m+n) BFS baseline). The engine is constructed (and
// the snapshot pinned) now, under whatever lock the caller holds; the
// returned closure runs lock-free.
func PrepareHashMinCC(g *graph.Graph, cfg Config) func() (*CCResult, error) {
	ecfg := engineCfg[VertexID](cfg)
	if !cfg.NoCombiner {
		ecfg.Combiner = minLabel
	}
	if cfg.PackedState {
		labels := newPackedLabels(g.N())
		return prepareHashMin(g, labels, pregel.NewEngine[struct{}, VertexID](g, hashMinProgram[struct{}, packedLabels]{labels: labels}, ecfg))
	}
	return prepareHashMin(g, inValue[VertexID]{}, pregel.NewEngine[VertexID, VertexID](g, &coldHashMin, ecfg))
}

// coldHashMin is the dense, unseeded program. Its value receivers
// leave it no state to change, so every run shares it, and the engine
// holds a pointer to it where boxing a copy would allocate.
var coldHashMin hashMinProgram[VertexID, inValue[VertexID]]

func prepareHashMin[V any](g *graph.Graph, labels vertexState[V, VertexID], eng *pregel.Engine[V, VertexID]) func() (*CCResult, error) {
	return func() (*CCResult, error) {
		res, err := eng.Run()
		if err != nil {
			return nil, err
		}
		color := make([]VertexID, g.N())
		for v := range res.Values {
			color[v] = labels.get(&res.Values[v], VertexID(v))
		}
		return &CCResult{Color: color, Stats: res.Stats}, nil
	}
}
