// Package vc implements the twenty vertex-centric graph algorithms
// benchmarked in Table 1 of "Vertex-Centric Graph Processing: The Good,
// the Bad, and the Ugly" (EDBT 2017), each on top of the
// internal/pregel engine and each returning the engine's BSP
// instrumentation so internal/core can compute the paper's metrics.
package vc

import (
	"errors"

	"vcgraph/internal/bsp"
	"vcgraph/internal/graph"
	"vcgraph/internal/pregel"
	"vcgraph/internal/runtime"
)

// errNotDirected guards algorithms that require directed input.
var errNotDirected = errors.New("vc: algorithm requires a directed graph")

// errNotBipartite guards BipartiteMatching against non-bipartite input.
var errNotBipartite = errors.New("vc: graph is not bipartite for the given left-side size")

// errTooManySources guards BetweennessShared's int16 source tags.
var errTooManySources = errors.New("vc: superstep sharing supports at most 32768 sources")

// VertexID aliases graph.VertexID.
type VertexID = graph.VertexID

// Config carries the engine knobs shared by every algorithm.
type Config struct {
	// Workers is the number of BSP workers (the P in P·T). 0 = default.
	Workers int
	// MaxSupersteps caps each engine run. 0 = engine default.
	MaxSupersteps int
	// Seed drives the randomized algorithms (Luby MIS, bipartite
	// matching). 0 = 1.
	Seed int64
	// NoCombiner disables message combiners in the algorithms that use
	// one (Hash-Min, SSSP, fixed-K PageRank, double sweep). Used by the
	// combiner ablation to measure the network volume combiners save.
	// It also disables the pull path, which requires a combiner.
	NoCombiner bool
	// Mode selects the direction-optimizing message path: push, pull,
	// or auto (the zero value; pull dense supersteps when the
	// algorithm has a combiner). See pregel.Config.Mode.
	Mode runtime.DirectionMode
	// PullThreshold overrides the auto-mode frontier density threshold
	// (fraction of n; <= 0 means runtime.DefaultPullThreshold).
	PullThreshold float64
	// Partition picks the vertex-to-worker assignment (nil = hash).
	Partition pregel.Partitioner
	// FCS enables finishing-computations-serially with the given
	// active-vertex threshold for algorithms that support it (Hash-Min).
	FCS int
	// PackedState keeps the vertex state of the small-domain
	// algorithms (Hash-Min CC, k-core, coloring) in PackedInts stores
	// at ⌈log₂ domain⌉ bits per entry instead of a full value slot. The
	// program is the same either way, so packed runs are byte-identical
	// to dense ones (see the differential suite).
	PackedState bool
	// Pool, when non-nil, leases workers from a shared pool instead of
	// a private one (see runtime.DriverConfig).
	Pool *runtime.Pool
	// RunEnv passes the checkpoint cadence, fault plan, cancellation
	// and job binding through to the engine (see runtime.RunEnv).
	runtime.RunEnv
}

func engineCfg[M any](c Config) pregel.Config[M] {
	return pregel.Config[M]{
		Workers:       c.Workers,
		MaxSupersteps: c.MaxSupersteps,
		Seed:          c.Seed,
		Partition:     c.Partition,
		FCSThreshold:  c.FCS,
		Mode:          c.Mode,
		PullThreshold: c.PullThreshold,
		Pool:          c.Pool,
		RunEnv:        c.RunEnv,
	}
}

// MergeStats combines the statistics of a multi-stage pipeline (several
// engine runs chained into one logical algorithm): superstep sequences
// concatenate, per-vertex balance maxima take the max, totals add.
func MergeStats(parts ...*bsp.Stats) *bsp.Stats {
	out := &bsp.Stats{}
	for _, p := range parts {
		if p == nil {
			continue
		}
		if p.Workers > out.Workers {
			out.Workers = p.Workers
		}
		if p.N > out.N {
			out.N = p.N
		}
		out.Supersteps = append(out.Supersteps, p.Supersteps...)
		if p.MaxStatePerDeg > out.MaxStatePerDeg {
			out.MaxStatePerDeg = p.MaxStatePerDeg
		}
		if p.MaxComputePerDeg > out.MaxComputePerDeg {
			out.MaxComputePerDeg = p.MaxComputePerDeg
		}
		if p.MaxSentPerDeg > out.MaxSentPerDeg {
			out.MaxSentPerDeg = p.MaxSentPerDeg
		}
		if p.MaxRecvPerDeg > out.MaxRecvPerDeg {
			out.MaxRecvPerDeg = p.MaxRecvPerDeg
		}
		out.TotalMessages += p.TotalMessages
		out.HeapInuseDelta += p.HeapInuseDelta
		out.TotalAllocDelta += p.TotalAllocDelta
		out.TotalWork += p.TotalWork
		out.MeasuredTime += p.MeasuredTime
		out.Recovery.Add(p.Recovery)
	}
	return out
}
