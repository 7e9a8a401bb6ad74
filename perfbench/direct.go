package main

import (
	"fmt"

	"vcgraph/internal/async"
	"vcgraph/internal/blockcentric"
	"vcgraph/internal/bsp"
	"vcgraph/internal/gas"
	"vcgraph/internal/graph"
	rt "vcgraph/internal/runtime"
	"vcgraph/internal/vc"
)

// directOut is the normalized output of one direct engine call.
type directOut struct {
	vals     []float64
	stats    *bsp.Stats
	switches int // plan handoffs (auto only)
}

// prepareDirect calls the public prepare function of one engine, as
// the service's runner does for a job, and returns its run function.
// The benchmark times the two halves separately.
func prepareDirect(g *graph.Graph, engine, algo string, src, k int, eps float64, pool *rt.Pool) (func() (directOut, error), error) {
	s := graph.VertexID(src)
	switch engine {
	case "pregel":
		cfg := vc.Config{Workers: analyticsWorkers, Pool: pool}
		switch algo {
		case "pagerank":
			run := vc.PreparePageRank(g, prAlpha, k, cfg)
			return func() (directOut, error) {
				res, err := run()
				if err != nil {
					return directOut{}, err
				}
				return directOut{vals: res.Ranks, stats: res.Stats}, nil
			}, nil
		case "sssp":
			run := vc.PrepareSSSP(g, s, cfg)
			return func() (directOut, error) {
				res, err := run()
				if err != nil {
					return directOut{}, err
				}
				return directOut{vals: res.Dist, stats: res.Stats}, nil
			}, nil
		case "cc":
			run := vc.PrepareHashMinCC(g, cfg)
			return func() (directOut, error) {
				res, err := run()
				if err != nil {
					return directOut{}, err
				}
				return directOut{vals: idsToFloats(res.Color), stats: res.Stats}, nil
			}, nil
		case "kcore":
			run := vc.PrepareKCore(g, cfg)
			return func() (directOut, error) {
				res, err := run()
				if err != nil {
					return directOut{}, err
				}
				vals := make([]float64, len(res.Core))
				for v, c := range res.Core {
					vals[v] = float64(c)
				}
				return directOut{vals: vals, stats: res.Stats}, nil
			}, nil
		}
	case "gas":
		cfg := gas.Config{Workers: analyticsWorkers, Pool: pool}
		switch algo {
		case "pagerank":
			run := gas.PreparePageRank(g, prAlpha, eps, cfg)
			return func() (directOut, error) {
				vals, res, err := run()
				if err != nil {
					return directOut{}, err
				}
				return directOut{vals: vals, stats: res.Stats}, nil
			}, nil
		case "sssp":
			run := gas.PrepareSSSP(g, s, cfg)
			return func() (directOut, error) {
				vals, res, err := run()
				if err != nil {
					return directOut{}, err
				}
				return directOut{vals: vals, stats: res.Stats}, nil
			}, nil
		case "cc":
			run := gas.PrepareConnectedComponents(g, cfg)
			return func() (directOut, error) {
				ids, res, err := run()
				if err != nil {
					return directOut{}, err
				}
				return directOut{vals: idsToFloats(ids), stats: res.Stats}, nil
			}, nil
		}
	case "async":
		cfg := async.Config{Pool: pool}
		switch algo {
		case "pagerank":
			run := async.PreparePageRank(g, prAlpha, eps, cfg)
			return func() (directOut, error) {
				vals, res, err := run()
				if err != nil {
					return directOut{}, err
				}
				return directOut{vals: vals, stats: res.Stats}, nil
			}, nil
		case "sssp":
			run := async.PrepareSSSP(g, s, cfg)
			return func() (directOut, error) {
				vals, res, err := run()
				if err != nil {
					return directOut{}, err
				}
				return directOut{vals: vals, stats: res.Stats}, nil
			}, nil
		case "cc":
			run := async.PrepareConnectedComponents(g, cfg)
			return func() (directOut, error) {
				ids, res, err := run()
				if err != nil {
					return directOut{}, err
				}
				return directOut{vals: idsToFloats(ids), stats: res.Stats}, nil
			}, nil
		}
	case "blockcentric":
		cfg := blockcentric.Config{Blocks: analyticsWorkers, Pool: pool}
		switch algo {
		case "pagerank":
			run := blockcentric.PreparePageRank(g, prAlpha, k, cfg)
			return func() (directOut, error) {
				res, err := run()
				if err != nil {
					return directOut{}, err
				}
				return directOut{vals: res.Ranks, stats: res.Stats}, nil
			}, nil
		case "sssp":
			run := blockcentric.PrepareSSSP(g, s, cfg)
			return func() (directOut, error) {
				res, err := run()
				if err != nil {
					return directOut{}, err
				}
				return directOut{vals: res.Dist, stats: res.Stats}, nil
			}, nil
		case "cc":
			run := blockcentric.PrepareConnectedComponents(g, cfg)
			return func() (directOut, error) {
				res, err := run()
				if err != nil {
					return directOut{}, err
				}
				return directOut{vals: idsToFloats(res.Color), stats: res.Stats}, nil
			}, nil
		}
	case "auto":
		cfg := vc.AutoConfig{Config: vc.Config{Workers: analyticsWorkers, Pool: pool}}
		switch algo {
		case "pagerank":
			run := vc.PrepareAutoPageRank(g, prAlpha, k, cfg)
			return func() (directOut, error) {
				res, ar, err := run()
				if err != nil {
					return directOut{}, err
				}
				return directOut{vals: res.Ranks, stats: ar.Stats, switches: len(ar.Decisions) - 1}, nil
			}, nil
		case "sssp":
			run := vc.PrepareAutoSSSP(g, s, cfg)
			return func() (directOut, error) {
				res, ar, err := run()
				if err != nil {
					return directOut{}, err
				}
				return directOut{vals: res.Dist, stats: ar.Stats, switches: len(ar.Decisions) - 1}, nil
			}, nil
		case "cc":
			run := vc.PrepareAutoHashMinCC(g, cfg)
			return func() (directOut, error) {
				res, ar, err := run()
				if err != nil {
					return directOut{}, err
				}
				return directOut{vals: idsToFloats(res.Color), stats: ar.Stats, switches: len(ar.Decisions) - 1}, nil
			}, nil
		}
	}
	return nil, fmt.Errorf("no direct call for %s on %s", algo, engine)
}

func idsToFloats(ids []graph.VertexID) []float64 {
	out := make([]float64, len(ids))
	for i, id := range ids {
		out[i] = float64(id)
	}
	return out
}
