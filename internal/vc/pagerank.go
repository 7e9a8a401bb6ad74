package vc

import (
	"vcgraph/internal/bsp"
	"vcgraph/internal/graph"
	"vcgraph/internal/pregel"
)

// PageRankResult holds the vertex-centric PageRank output.
type PageRankResult struct {
	Ranks []float64
	Stats *bsp.Stats
}

type prValue struct{ rank float64 }

type prProgram struct {
	n     int
	alpha float64
	k     int // number of rank-update iterations
	// seed warm-starts the run from exported ranks (adaptive plan
	// layer handoff); nil means the uniform 1/n cold start. Compute is
	// untouched, so a resumed segment is bit-identical to the suffix
	// of an unswitched run.
	seed []float64
}

func (p *prProgram) Init(g *graph.Graph, id VertexID) prValue {
	if p.seed != nil {
		return prValue{rank: p.seed[id]}
	}
	return prValue{rank: 1 / float64(p.n)}
}

func (p *prProgram) Compute(ctx *pregel.Context[prValue, float64], msgs []float64) {
	s := ctx.Superstep()
	if s > 0 {
		var sum float64
		for _, m := range msgs {
			sum += m
		}
		ctx.Value().rank = (1-p.alpha)/float64(p.n) + p.alpha*sum
	}
	if s < p.k {
		if d := ctx.OutDegree(); d > 0 {
			share := ctx.Value().rank / float64(d)
			ctx.SendToNeighbors(share)
		}
		return
	}
	ctx.VoteToHalt()
}

func (p *prProgram) StateUnits(v *prValue) int64 { return 1 }

// prConvergeProgram runs PageRank until the aggregated L1 rank change
// drops below eps — the "until convergence" variant the paper's row 2
// refers to when it calls K the number of supersteps to convergence.
type prConvergeProgram struct {
	n     int
	alpha float64
	eps   float64
	// master state
	iterations int
}

func (p *prConvergeProgram) Init(g *graph.Graph, id VertexID) prValue {
	return prValue{rank: 1 / float64(p.n)}
}

func (p *prConvergeProgram) BeforeSuperstep(mc *pregel.MasterContext) {
	if mc.Superstep() > 1 {
		if delta, ok := mc.Agg("delta").(float64); ok && delta < p.eps {
			mc.Halt()
			return
		}
	}
	p.iterations = mc.Superstep()
}

func (p *prConvergeProgram) Compute(ctx *pregel.Context[prValue, float64], msgs []float64) {
	v := ctx.Value()
	if ctx.Superstep() > 0 {
		var sum float64
		for _, m := range msgs {
			sum += m
		}
		next := (1-p.alpha)/float64(p.n) + p.alpha*sum
		diff := next - v.rank
		if diff < 0 {
			diff = -diff
		}
		ctx.Aggregate("delta", diff)
		v.rank = next
	}
	if d := ctx.OutDegree(); d > 0 {
		ctx.SendToNeighbors(v.rank / float64(d))
	}
}

func (p *prConvergeProgram) StateUnits(v *prValue) int64 { return 1 }

// PageRankConverge iterates PageRank until the total L1 rank movement
// per superstep falls below eps, returning the ranks and the number of
// supersteps that took.
func PageRankConverge(g *graph.Graph, alpha, eps float64, cfg Config) (*PageRankResult, int, error) {
	prog := &prConvergeProgram{n: g.N(), alpha: alpha, eps: eps}
	eng := pregel.NewEngine[prValue, float64](g, prog, engineCfg[float64](cfg))
	eng.RegisterAggregator("delta", pregel.SumFloat64())
	res, err := eng.Run()
	if err != nil {
		return nil, 0, err
	}
	ranks := make([]float64, g.N())
	for v, val := range res.Values {
		ranks[v] = val.rank
	}
	return &PageRankResult{Ranks: ranks, Stats: res.Stats}, res.Supersteps, nil
}

// PreparePageRank prepares the Pregel-paper PageRank for k iterations
// with damping factor alpha (Table 1 row 2: O(mK) messages, balanced
// but not BPPA because K typically exceeds log n). The rank
// contributions sum through a combiner, which also makes every dense
// superstep pull-eligible; the pull gather folds contributions in
// push-identical order, so the ranks are bit-identical in either mode
// (see runtime.Gatherer). The engine is constructed (and the snapshot
// pinned) now, under whatever lock the caller holds; the returned
// closure runs lock-free.
func PreparePageRank(g *graph.Graph, alpha float64, k int, cfg Config) func() (*PageRankResult, error) {
	prog := &prProgram{n: g.N(), alpha: alpha, k: k}
	ecfg := engineCfg[float64](cfg)
	if !cfg.NoCombiner {
		ecfg.Combiner = func(a, b float64) float64 { return a + b }
	}
	eng := pregel.NewEngine[prValue, float64](g, prog, ecfg)
	return func() (*PageRankResult, error) {
		res, err := eng.Run()
		if err != nil {
			return nil, err
		}
		ranks := make([]float64, g.N())
		for v, val := range res.Values {
			ranks[v] = val.rank
		}
		return &PageRankResult{Ranks: ranks, Stats: res.Stats}, nil
	}
}
