package vc

import (
	"math"

	"vcgraph/internal/bsp"
	"vcgraph/internal/graph"
	"vcgraph/internal/pregel"
	"vcgraph/internal/runtime"
)

// SSSPResult holds the vertex-centric single-source shortest path
// output.
type SSSPResult struct {
	Dist  []float64
	Stats *bsp.Stats
}

type ssspValue struct{ dist float64 }

type ssspProgram struct {
	src VertexID
	// seed warm-starts the run from exported tentative distances
	// (adaptive plan layer handoff); nil means the cold start where
	// only the source is finite. A warm restart re-announces every
	// finite distance at superstep 0, which dominates any message that
	// was in flight when the previous engine stopped.
	seed []float64
}

func (p *ssspProgram) Init(g *graph.Graph, id VertexID) ssspValue {
	if p.seed != nil {
		return ssspValue{dist: p.seed[id]}
	}
	if id == p.src {
		return ssspValue{dist: 0}
	}
	return ssspValue{dist: math.Inf(1)}
}

func (p *ssspProgram) Compute(ctx *pregel.Context[ssspValue, float64], msgs []float64) {
	v := ctx.Value()
	improved := ctx.Superstep() == 0 && ctx.ID() == p.src
	if p.seed != nil && ctx.Superstep() == 0 {
		improved = !math.IsInf(v.dist, 1)
	}
	for _, m := range msgs {
		if m < v.dist {
			v.dist = m
			improved = true
		}
	}
	if improved {
		ctx.ForEachOut(func(dst VertexID, w float64) {
			ctx.SendTo(dst, v.dist+w)
		})
	}
	ctx.VoteToHalt()
}

func (p *ssspProgram) StateUnits(v *ssspValue) int64 { return 1 }

// PrepareSSSP prepares the Pregel-paper Bellman–Ford style
// single-source shortest path algorithm (Table 1 row 16: O(mn)
// worst-case work vs. Dijkstra's near-linear bound). Weights must be
// non-negative. The engine is constructed (and the snapshot pinned)
// now, under whatever lock the caller holds; the returned closure runs
// lock-free.
func PrepareSSSP(g *graph.Graph, src VertexID, cfg Config) func() (*SSSPResult, error) {
	prog := &ssspProgram{src: src}
	ecfg := engineCfg[float64](cfg)
	// SSSP sends a distinct distance per edge (SendTo, never a
	// broadcast), so a pulled superstep would find no broadcast slots
	// and waste an O(n+m) transpose scan. Pin the push path.
	ecfg.Mode = runtime.DirectionPush
	if !cfg.NoCombiner {
		ecfg.Combiner = func(a, b float64) float64 {
			if a < b {
				return a
			}
			return b
		}
	}
	eng := pregel.NewEngine[ssspValue, float64](g, prog, ecfg)
	return func() (*SSSPResult, error) {
		res, err := eng.Run()
		if err != nil {
			return nil, err
		}
		dist := make([]float64, g.N())
		for v, val := range res.Values {
			dist[v] = val.dist
		}
		return &SSSPResult{Dist: dist, Stats: res.Stats}, nil
	}
}
