// Incremental maintenance for the monotone vertex programs on evolving
// graphs: instead of recomputing from scratch after every mutation
// batch, a prior job's converged state is repaired by re-activating
// only the vertices the graph delta could have affected, and draining
// them through the async engine's worklist FIFO (the shared
// runtime.WorklistRunner) against a pinned graph.DeltaCSR view.
//
// The correctness contract is strict: an incremental run converges to a
// result byte-identical to a from-scratch run on the mutated graph.
// For CC and SSSP that holds because both compute the unique fixpoint
// of a monotone operator (min member ID per component; min path-sum per
// vertex) whose value does not depend on the update schedule — the seed
// analysis only has to re-activate a superset of the vertices whose
// fixpoint value changed. PageRank's eps-thresholded fixpoint is
// schedule-dependent in its low bits, so incremental PageRank instead
// memoizes a fixed-K power iteration (incremental_pagerank.go) and is
// byte-identical by construction.
//
// Each incremental state records the graph epoch it is valid for;
// Graph.MutationsSince(epoch) supplies the delta. If the history is
// unavailable — out-of-band mutation, truncated log, stale parameters —
// the run falls back to a cold start (Cold=true on the returned state),
// which is itself the from-scratch baseline the differential suite
// compares against.
package vc

import (
	"errors"
	"math"

	"vcgraph/internal/bsp"
	"vcgraph/internal/graph"
	rt "vcgraph/internal/runtime"
)

// IncConfig controls an incremental run. Its run environment works as
// in async.Config: one driver step is one epoch of up to
// CheckpointEvery (default 64) updates, at whose boundary faults fire
// and checkpoints are taken.
type IncConfig struct {
	// MaxUpdates caps total vertex updates (default 200·(n+64)).
	MaxUpdates int
	// Pool, when non-nil, leases the single worker from a shared pool.
	Pool *rt.Pool
	// RunEnv carries the checkpoint cadence, fault plan, cancellation
	// and job binding (see runtime.RunEnv). A Job's share must be 1:
	// the worklist drain is sequential.
	rt.RunEnv
}

// ErrIncrementalDirected rejects incremental CC/SSSP on directed
// graphs: their update rules pull over out-spans, which equals the
// in-neighborhood only for undirected graphs (the async engine has the
// same restriction).
var ErrIncrementalDirected = errors.New("vc: incremental cc/sssp require an undirected graph")

// incEpochLen mirrors the async engine's default fault-detection epoch.
const incEpochLen = 64

func (cfg *IncConfig) epochLen() int {
	if cfg.CheckpointEvery > 0 {
		return cfg.CheckpointEvery
	}
	return incEpochLen
}

func (cfg *IncConfig) maxUpdates(n int) int {
	if cfg.MaxUpdates > 0 {
		return cfg.MaxUpdates
	}
	return 200 * (n + 64)
}

// runIncWorklist drains the seeded worklist to quiescence under the
// shared FIFO-epoch policy. seeds nil means every vertex (a cold
// start); otherwise a rollback with no readable checkpoint replays
// exactly the seed set, keeping faulted runs byte-identical.
func runIncWorklist[V any](name string, values []V, update func(VertexID) []VertexID, seeds []VertexID, n int, cold bool, cfg IncConfig) (*bsp.Stats, error) {
	queue := rt.NewFIFO(n)
	if cold {
		for v := 0; v < n; v++ {
			queue.Push(VertexID(v))
		}
	} else {
		queue.PushAll(seeds)
	}
	stats := &bsp.Stats{Workers: 1, N: n}
	p := &rt.WorklistRunner[V]{
		Name:       name,
		Update:     update,
		Values:     values,
		Queue:      queue,
		N:          n,
		EpochLen:   cfg.epochLen(),
		MaxUpdates: cfg.maxUpdates(n),
		CapErr:     bsp.ErrSuperstepCap,
	}
	d := rt.NewDriver[*rt.WorklistSnapshot[V]](p, stats, rt.DriverConfig{
		Name:       name,
		Workers:    1,
		MaxSteps:   math.MaxInt,
		CapErr:     bsp.ErrSuperstepCap,
		RunEnv:     cfg.RunEnv,
		EpochSaves: true,
		Pool:       cfg.Pool,
	})
	_, err := d.Run()
	return stats, err
}

// --- Incremental connected components (hash-min) ---

// IncCCState is the persistent state of incremental CC: the converged
// min-member labels and the graph epoch they are valid for. Cold
// reports whether the run that produced it had to recompute from
// scratch (no usable prior state or history).
type IncCCState struct {
	Epoch  int64
	Labels []VertexID
	Cold   bool
}

// IncrementalCC computes (or incrementally repairs) hash-min connected
// component labels. IncrementalCC is PrepareIncrementalCC(g, prior, cfg)().
func IncrementalCC(g *graph.Graph, prior *IncCCState, cfg IncConfig) (*IncCCState, *bsp.Stats, error) {
	return PrepareIncrementalCC(g, prior, cfg)()
}

// PrepareIncrementalCC splits the run in two, like every engine's
// Prepare form: the delta view is pinned and the seed analysis done now
// (under the caller's graph lock), the returned closure drains the
// worklist lock-free and unpins.
//
// Seeding: an inserted edge re-activates its endpoints (min-label
// propagation pulls, so an endpoint adopting a smaller label re-floods
// it). A deleted edge may split a component, and hash-min cannot raise
// a label — so every vertex whose prior label matches a deleted edge's
// endpoint labels is re-seeded to its own ID and activated (the
// affected component only, per the tentpole). Resetting a whole prior
// label class is what makes multi-batch windows safe: any stale
// too-small label must be the prior minimum of a component some
// deletion touched, and that entire class is reset.
func PrepareIncrementalCC(g *graph.Graph, prior *IncCCState, cfg IncConfig) func() (*IncCCState, *bsp.Stats, error) {
	if g.Directed {
		return func() (*IncCCState, *bsp.Stats, error) { return nil, nil, ErrIncrementalDirected }
	}
	view := g.PinDelta()
	n := view.N()
	labels := make([]VertexID, n)
	var seeds []VertexID
	cold := true
	if prior != nil && len(prior.Labels) == n {
		if muts, ok := g.MutationsSince(prior.Epoch); ok {
			cold = false
			copy(labels, prior.Labels)
			seeds = seedCC(labels, muts)
		}
	}
	if cold {
		for v := range labels {
			labels[v] = VertexID(v)
		}
	}
	update := makeCCUpdate(view, &labels)
	return func() (*IncCCState, *bsp.Stats, error) {
		defer g.UnpinDelta(view)
		stats, err := runIncWorklist[VertexID]("vc: incremental cc", labels, update, seeds, n, cold, cfg)
		if err != nil {
			return nil, stats, err
		}
		return &IncCCState{Epoch: view.Epoch(), Labels: labels, Cold: cold}, stats, nil
	}
}

// seedCC resets the prior label classes struck by deletions and
// collects the activation seeds (reset vertices + insert endpoints).
// labels is modified in place from the prior labels.
func seedCC(labels []VertexID, muts []graph.Mutation) []VertexID {
	var seeds []VertexID
	affected := make(map[VertexID]bool)
	for _, m := range muts {
		switch m.Op {
		case graph.InsertEdge:
			seeds = append(seeds, m.U, m.V)
		case graph.DeleteEdge:
			// Both endpoints' prior classes: in a converged prior state
			// they coincide, but the deleted edge may have been
			// inserted after prior converged, bridging two classes.
			affected[labels[m.U]] = true
			affected[labels[m.V]] = true
		}
	}
	if len(affected) > 0 {
		for w := range labels {
			if affected[labels[w]] {
				labels[w] = VertexID(w)
				seeds = append(seeds, VertexID(w))
			}
		}
	}
	return seeds
}

// makeCCUpdate returns the hash-min update over the delta view: adopt
// the minimum label among self and neighbors; on change, re-activate
// the neighborhood. The activation slice is a reused scratch buffer
// (the FIFO copies it before the next update).
func makeCCUpdate(view *graph.DeltaCSR, labels *[]VertexID) func(VertexID) []VertexID {
	var scratch []VertexID
	return func(v VertexID) []VertexID {
		ls := *labels
		min := ls[v]
		scratch = scratch[:0]
		view.ForEachOut(v, func(d VertexID, _ float64) {
			scratch = append(scratch, d)
			if ls[d] < min {
				min = ls[d]
			}
		})
		if min < ls[v] {
			ls[v] = min
			return scratch
		}
		return nil
	}
}
