package vc

import (
	"vcgraph/internal/bsp"
	"vcgraph/internal/graph"
	"vcgraph/internal/pregel"
)

// CCResult holds a connected-components labeling: Color[v] is the
// smallest vertex ID in v's component (the paper's component "color").
type CCResult struct {
	Color []VertexID
	Stats *bsp.Stats
}

type hashMinValue struct{ min VertexID }

type hashMinProgram struct {
	// seed warm-starts the run from exported labels (adaptive plan
	// layer handoff); nil means the identity cold start. Superstep 0
	// still folds structural neighbor IDs and re-broadcasts — both are
	// monotone min steps, so a warm restart reaches the same fixpoint
	// as the unswitched run.
	seed []VertexID
}

func (p hashMinProgram) Init(g *graph.Graph, id VertexID) hashMinValue {
	if p.seed != nil {
		return hashMinValue{min: p.seed[id]}
	}
	return hashMinValue{min: id}
}

func (hashMinProgram) Compute(ctx *pregel.Context[hashMinValue, VertexID], msgs []VertexID) {
	v := ctx.Value()
	if ctx.Superstep() == 0 {
		// min over {v} ∪ neighbors(v), then broadcast.
		ctx.ForEachOut(func(dst VertexID, w float64) {
			ctx.Charge(1)
			if dst < v.min {
				v.min = dst
			}
		})
		ctx.SendToNeighbors(v.min)
		ctx.VoteToHalt()
		return
	}
	u := v.min
	for _, m := range msgs {
		if m < u {
			u = m
		}
	}
	if u < v.min {
		v.min = u
		ctx.SendToNeighbors(v.min)
	}
	ctx.VoteToHalt()
}

func (hashMinProgram) StateUnits(v *hashMinValue) int64 { return 1 }

// FinishSerially completes Hash-Min with a sequential min-label
// relaxation seeded from the still-active frontier (the FCS
// optimization of Salihoglu & Widom, enabled via Config.FCS).
func (hashMinProgram) FinishSerially(fc *pregel.FinishContext[hashMinValue, VertexID]) int64 {
	var work int64
	queue := make([]VertexID, 0, len(fc.Active()))
	for _, v := range fc.Active() {
		val := fc.Value(v)
		for _, m := range fc.Inbox(v) {
			work++
			if m < val.min {
				val.min = m
			}
		}
		queue = append(queue, v)
	}
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		label := fc.Value(v).min
		fc.ForEachOut(v, func(dst VertexID, _ float64) {
			work++
			if w := fc.Value(dst); label < w.min {
				w.min = label
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
		ecfg.Combiner = func(a, b VertexID) VertexID {
			if a < b {
				return a
			}
			return b
		}
	}
	if cfg.PackedState {
		prog := newHashMinPackedProgram(g.N(), nil)
		eng := pregel.NewEngine[struct{}, VertexID](g, prog, ecfg)
		return func() (*CCResult, error) {
			res, err := eng.Run()
			if err != nil {
				return nil, err
			}
			color := make([]VertexID, g.N())
			for v := range res.Values {
				color[v] = VertexID(prog.labels.Get(v))
			}
			return &CCResult{Color: color, Stats: res.Stats}, nil
		}
	}
	eng := pregel.NewEngine[hashMinValue, VertexID](g, hashMinProgram{}, ecfg)
	return func() (*CCResult, error) {
		res, err := eng.Run()
		if err != nil {
			return nil, err
		}
		color := make([]VertexID, g.N())
		for v, val := range res.Values {
			color[v] = val.min
		}
		return &CCResult{Color: color, Stats: res.Stats}, nil
	}
}
