package vc

import (
	"vcgraph/internal/bsp"
	"vcgraph/internal/graph"
	rt "vcgraph/internal/runtime"
)

// IncPRState is the persistent state of incremental PageRank: the full
// per-superstep rank history of a fixed-K power iteration at graph
// epoch Epoch. Keeping all K+1 vectors (not just the final ranks) is
// what makes warm starts byte-identical: superstep s of a warm run
// recomputes only vertices whose superstep-s inputs changed and copies
// every other value verbatim from Hist[s+1] — by induction the copied
// values are bit-for-bit what a from-scratch run would recompute.
type IncPRState struct {
	Epoch int64
	Alpha float64
	K     int
	Hist  [][]float64
	Cold  bool
}

// Ranks returns the final rank vector (Hist[K]).
func (s *IncPRState) Ranks() []float64 { return s.Hist[len(s.Hist)-1] }

// PrepareIncrementalPageRank computes (or incrementally repairs) a
// fixed-K power-iteration PageRank.
//
// Unlike incremental CC/SSSP — unique fixpoints a worklist drain
// reaches from any seed superset — PageRank's converged low bits depend
// on the update schedule, so the incremental form fixes the schedule: K
// synchronous pull supersteps in canonical in-neighbor order,
// r_{s+1}[v] = (1-α)/n + α·Σ_{u∈In(v)} r_s[u]/outdeg(u). A warm start
// re-evaluates only the frontier of change — the structurally dirty
// vertices (in-adjacency or an in-neighbor's out-degree touched by the
// delta) plus out-neighbors of values that changed last superstep — and
// the change frontier collapses wherever a perturbation rounds away on
// a high-degree sum, which is where the speedup over recompute comes
// from.
//
// The delta view is pinned and the dirty-set analysis done now; the
// returned closure runs the supersteps lock-free (under runtime.Driver,
// so checkpoint/rollback and fault injection work exactly as in the BSP
// engines) and unpins.
func PrepareIncrementalPageRank(g *graph.Graph, alpha float64, k int, prior *IncPRState, cfg IncConfig) func() (*IncPRState, *bsp.Stats, error) {
	view := g.PinDelta()
	n := view.N()
	view.Base().EnsureIn() // the sweep pulls over the transpose
	p := &incPRPolicy{view: view, n: n, alpha: alpha, k: k}
	p.outDeg = make([]float64, n)
	for v := 0; v < n; v++ {
		d := view.OutDegree(VertexID(v))
		if d == 0 {
			d = 1 // dangling; never read (a vertex with out-edges has outdeg >= 1)
		}
		p.outDeg[v] = float64(d)
	}
	if prior != nil && prior.Alpha == alpha && prior.K == k &&
		len(prior.Hist) == k+1 && len(prior.Hist[0]) == n {
		if muts, ok := g.MutationsSince(prior.Epoch); ok {
			p.prior = prior.Hist
			p.dirty0 = prDirtySet(view, n, muts)
		}
	}
	r0 := make([]float64, n)
	for v := range r0 {
		r0[v] = 1 / float64(n)
	}
	p.hist = [][]float64{r0}
	p.cur = r0
	p.mark = make([]bool, n)
	stats := &bsp.Stats{Workers: 1, N: n}
	d := rt.NewDriver[*incPRSnap](p, stats, rt.DriverConfig{
		Name:     "vc: incremental pagerank",
		Workers:  1,
		MaxSteps: k + 1,
		CapErr:   bsp.ErrSuperstepCap,
		RunEnv:   cfg.RunEnv,
		Pool:     cfg.Pool,
	})
	return func() (*IncPRState, *bsp.Stats, error) {
		defer g.UnpinDelta(view)
		if _, err := d.Run(); err != nil {
			return nil, stats, err
		}
		return &IncPRState{Epoch: view.Epoch(), Alpha: alpha, K: k, Hist: p.hist, Cold: p.prior == nil}, stats, nil
	}
}

// prDirtySet returns the sorted set of structurally dirty vertices: for
// every mutated edge (u,v), both endpoints (v's in-adjacency changed)
// and u's current out-neighbors (their sums divide by u's changed
// out-degree) — for undirected graphs symmetrically. These are
// re-evaluated every superstep; copying their memoized value would bake
// in the old adjacency.
func prDirtySet(view *graph.DeltaCSR, n int, muts []graph.Mutation) []VertexID {
	in := make([]bool, n)
	add := func(v VertexID) { in[v] = true }
	for _, m := range muts {
		add(m.U)
		add(m.V)
		view.ForEachOut(m.U, func(z VertexID, _ float64) { add(z) })
		if !view.Directed() {
			view.ForEachOut(m.V, func(z VertexID, _ float64) { add(z) })
		}
	}
	var out []VertexID
	for v := 0; v < n; v++ {
		if in[v] {
			out = append(out, VertexID(v))
		}
	}
	return out
}

// incPRPolicy runs the memoized power iteration as a runtime.Policy:
// one driver step per superstep, quiescent after K.
type incPRPolicy struct {
	view   *graph.DeltaCSR
	n      int
	alpha  float64
	k      int
	outDeg []float64
	prior  [][]float64 // nil = cold (recompute everything)
	dirty0 []VertexID  // sorted; re-evaluated every superstep when warm

	hist    [][]float64
	cur     []float64  // r_step
	changed []VertexID // {v : cur[v] != prior[step][v]}, warm only
	mark    []bool     // candidate dedup scratch
}

func (p *incPRPolicy) recompute(v VertexID) (float64, int64) {
	sum := 0.0
	edges := int64(0)
	p.view.ForEachIn(v, func(u VertexID, _ float64) {
		sum += p.cur[u] / p.outDeg[u]
		edges++
	})
	return (1-p.alpha)/float64(p.n) + p.alpha*sum, edges
}

// Quiescent implements runtime.Policy: K supersteps, always.
func (p *incPRPolicy) Quiescent(step, pending int) bool { return step >= p.k }

// BarrierFaults implements runtime.BarrierFaultPolicy: a dropped batch
// loses the change frontier (unreconstructable in place — roll back); a
// duplicated batch is a no-op because candidates are a set.
func (p *incPRPolicy) BarrierFaults(inj *rt.Injector, step int) (lost bool) {
	return inj.LaneFault(step, 0, 0) == rt.FaultDropLane
}

// Superstep implements runtime.Policy: compute r_{step+1} into
// hist[step+1]. Warm runs copy the memoized vector and re-evaluate only
// the candidate set; cold runs evaluate every vertex.
func (p *incPRPolicy) Superstep(step int, ss *bsp.SuperstepStats) (int, error) {
	ss.Pulled = true
	next := make([]float64, p.n)
	if p.prior == nil {
		for v := 0; v < p.n; v++ {
			val, edges := p.recompute(VertexID(v))
			next[v] = val
			ss.Work[0] += edges
		}
		ss.Active[0] = int64(p.n)
		p.record(step, next)
		return p.n, nil
	}
	// Candidates: structurally dirty vertices plus out-neighbors of
	// last superstep's changed values. The mark array both dedups and —
	// via the in-order scan below — yields canonical vertex order
	// without a sort (the scan is O(n), already paid by the memo copy).
	live := 0
	for _, v := range p.dirty0 {
		if !p.mark[v] {
			p.mark[v] = true
			live++
		}
	}
	for _, v := range p.changed {
		p.view.ForEachOut(v, func(z VertexID, _ float64) {
			if !p.mark[z] {
				p.mark[z] = true
				live++
			}
		})
	}
	copy(next, p.prior[step+1])
	var newChanged []VertexID
	cands := int64(0)
	for v := 0; v < p.n && live > 0; v++ {
		if !p.mark[v] {
			continue
		}
		p.mark[v] = false
		live--
		cands++
		val, edges := p.recompute(VertexID(v))
		ss.Work[0] += edges
		next[v] = val
		if val != p.prior[step+1][v] {
			newChanged = append(newChanged, VertexID(v))
		}
	}
	ss.Active[0] = cands
	p.record(step, next)
	p.changed = newChanged
	return len(newChanged), nil
}

// record stores r_{step+1} as hist[step+1]. The history grows one row
// per superstep rather than being allocated for all K up front, so a
// large K costs memory only as it runs; a superstep replayed after a
// rollback replaces its row.
func (p *incPRPolicy) record(step int, next []float64) {
	p.hist = append(p.hist[:step+1], next)
	p.cur = next
}

// Snapshot implements runtime.Policy: the current rank vector and
// change frontier. The hist prefix written so far survives rollback —
// replayed supersteps overwrite their slots deterministically.
func (p *incPRPolicy) Snapshot() *incPRSnap {
	return &incPRSnap{
		cur:     append([]float64(nil), p.cur...),
		changed: append([]VertexID(nil), p.changed...),
	}
}

// Restore implements runtime.Policy.
func (p *incPRPolicy) Restore(snap *incPRSnap, step int, ok bool) {
	if ok {
		p.cur = append([]float64(nil), snap.cur...)
		p.changed = append([]VertexID(nil), snap.changed...)
		return
	}
	p.cur = p.hist[0]
	p.changed = nil
}

type incPRSnap struct {
	cur     []float64
	changed []VertexID
}

// FrameBytes implements runtime.SnapshotSizer, so checkpointed runs
// report their frame bytes like every other engine.
func (p *incPRPolicy) FrameBytes(snap *incPRSnap) int64 {
	return int64(len(snap.cur))*rt.SizeOf[float64]() + int64(len(snap.changed))*rt.SizeOf[VertexID]()
}
