package vc

import (
	"vcgraph/internal/bsp"
	"vcgraph/internal/graph"
)

// incInf is the unreachable-distance sentinel, matching the async
// engine's label-correcting SSSP (1e308, not math.Inf) so incremental
// and async from-scratch results are byte-identical including
// unreachable vertices.
const incInf = 1e308

// Unreachable is the exported unreachable-distance sentinel of the
// incremental SSSP state. Callers seeding IncSSSPState.Dist from
// another engine's output (which may use +Inf) must normalize
// unreachable entries to this value.
const Unreachable = incInf

// IncSSSPState is the persistent state of incremental SSSP: converged
// distances from Src at graph epoch Epoch.
type IncSSSPState struct {
	Epoch int64
	Src   VertexID
	Dist  []float64
	Cold  bool
}

// IncrementalSSSP computes (or incrementally repairs) single-source
// shortest paths. IncrementalSSSP is PrepareIncrementalSSSP(g, src, prior, cfg)().
func IncrementalSSSP(g *graph.Graph, src VertexID, prior *IncSSSPState, cfg IncConfig) (*IncSSSPState, *bsp.Stats, error) {
	return PrepareIncrementalSSSP(g, src, prior, cfg)()
}

// PrepareIncrementalSSSP pins the delta view and performs the seed
// analysis now; the returned closure drains the worklist lock-free.
//
// Seeding: an inserted edge can only shorten distances, so its
// endpoints re-relax and propagate. A deleted edge can lengthen them —
// label-correcting cannot raise a settled value, so every distance the
// deletion might have supported is invalidated first: starting from
// endpoints whose recorded distance is tight through a deleted edge
// (dist == other endpoint's dist + logged weight), the invalidation
// closure follows tight edges of the *new* graph (dist[z] == dist[x]+w
// with x already invalid), computed against the prior distances. The
// closure is reset to +inf and re-relaxed along with its current
// neighborhood. Over-invalidation is harmless — re-relaxation restores
// any value that was still achievable — and the closure provably
// contains every vertex whose recorded distance became unachievable:
// such a distance was produced by a chain of tight edges from the
// source that now crosses a deleted edge.
func PrepareIncrementalSSSP(g *graph.Graph, src VertexID, prior *IncSSSPState, cfg IncConfig) func() (*IncSSSPState, *bsp.Stats, error) {
	if g.Directed {
		return func() (*IncSSSPState, *bsp.Stats, error) { return nil, nil, ErrIncrementalDirected }
	}
	view := g.PinDelta()
	n := view.N()
	dist := make([]float64, n)
	var seeds []VertexID
	cold := true
	if prior != nil && prior.Src == src && len(prior.Dist) == n {
		if muts, ok := g.MutationsSince(prior.Epoch); ok {
			cold = false
			copy(dist, prior.Dist)
			seeds = seedSSSP(view, dist, src, muts)
		}
	}
	if cold {
		for v := range dist {
			dist[v] = incInf
		}
		dist[src] = 0
	}
	update := makeSSSPUpdate(view, &dist, src)
	return func() (*IncSSSPState, *bsp.Stats, error) {
		defer g.UnpinDelta(view)
		stats, err := runIncWorklist[float64]("vc: incremental sssp", dist, update, seeds, n, cold, cfg)
		if err != nil {
			return nil, stats, err
		}
		return &IncSSSPState{Epoch: view.Epoch(), Src: src, Dist: dist, Cold: cold}, stats, nil
	}
}

// seedSSSP computes the invalidation closure of the deletions against
// the prior distances, resets it to +inf, and returns the activation
// seeds: the closure, its current neighborhood, and insert endpoints.
// dist is modified in place from the prior distances.
func seedSSSP(view *graph.DeltaCSR, dist []float64, src VertexID, muts []graph.Mutation) []VertexID {
	var seeds []VertexID
	invalid := make(map[VertexID]bool)
	var frontier []VertexID
	mark := func(v VertexID) {
		if v != src && !invalid[v] {
			invalid[v] = true
			frontier = append(frontier, v)
		}
	}
	for _, m := range muts {
		switch m.Op {
		case graph.InsertEdge:
			seeds = append(seeds, m.U, m.V)
		case graph.DeleteEdge:
			// The logged weight is the weight actually removed, so the
			// tightness test reconstructs the deleted edge exactly.
			if dist[m.V] == dist[m.U]+m.W {
				mark(m.V)
			}
			if dist[m.U] == dist[m.V]+m.W {
				mark(m.U)
			}
		}
	}
	// Propagate invalidation through tight edges of the current graph:
	// z's recorded distance may be supported by x's, which is gone.
	for len(frontier) > 0 {
		x := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		view.ForEachOut(x, func(z VertexID, w float64) {
			if !invalid[z] && dist[z] == dist[x]+w {
				mark(z)
			}
		})
	}
	for v := range invalid {
		dist[v] = incInf
	}
	// Activate the closure and its current neighbors (the neighbors
	// hold the valid distances re-relaxation pulls from; the closure's
	// own updates then flood outward as needed). Map iteration order is
	// irrelevant: the FIFO dedups and the fixpoint is schedule-free,
	// but the seed list must be deterministic for fault replay — so
	// collect in vertex order.
	if len(invalid) > 0 {
		for v := 0; v < len(dist); v++ {
			if !invalid[VertexID(v)] {
				continue
			}
			seeds = append(seeds, VertexID(v))
			view.ForEachOut(VertexID(v), func(z VertexID, _ float64) {
				seeds = append(seeds, z)
			})
		}
	}
	return seeds
}

// makeSSSPUpdate returns the label-correcting update over the delta
// view, matching the async engine's ssspProgram: recompute the best
// offer from the (undirected) neighborhood; on improvement, adopt it
// and re-activate the neighbors.
func makeSSSPUpdate(view *graph.DeltaCSR, dist *[]float64, src VertexID) func(VertexID) []VertexID {
	var scratch []VertexID
	return func(v VertexID) []VertexID {
		ds := *dist
		d := incInf
		if v == src {
			d = 0
		}
		scratch = scratch[:0]
		view.ForEachOut(v, func(u VertexID, w float64) {
			scratch = append(scratch, u)
			if nd := ds[u] + w; nd < d {
				d = nd
			}
		})
		if d < ds[v] {
			ds[v] = d
			return scratch
		}
		return nil
	}
}
