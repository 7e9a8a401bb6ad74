// Evolving-graph mode: with -mutations > 0 (pagerank, sssp, and
// hashmin only), vcrun applies that many seeded insert/delete batches
// after the main run. After every batch it recomputes the answer twice
// — incrementally, warm-started from the previous round's state, and
// from scratch — checks the two are byte-identical, and reports the
// accumulated time and local-work ratio between them.
package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"time"

	"vcgraph/internal/graph"
	"vcgraph/internal/vc"
)

// evolve runs the incremental-vs-recompute loop. The graph already
// carries the weights the main run assigned (sssp); incremental CC and
// SSSP additionally require it to be undirected.
func evolve(g *graph.Graph, algo string, src graph.VertexID, rounds, batch int, seed int64) error {
	var (
		ccPrior *vc.IncCCState
		ssPrior *vc.IncSSSPState
		prPrior *vc.IncPRState
	)
	// runInc computes the current answer; warm advances the retained
	// state, cold recomputes from scratch and leaves the state alone.
	runInc := func(warm bool) ([]float64, int64, error) {
		var cfg vc.IncConfig
		switch algo {
		case "hashmin":
			prior := ccPrior
			if !warm {
				prior = nil
			}
			st, stats, err := vc.IncrementalCC(g, prior, cfg)
			if err != nil {
				return nil, 0, err
			}
			if warm {
				ccPrior = st
			}
			vals := make([]float64, len(st.Labels))
			for i, l := range st.Labels {
				vals[i] = float64(l)
			}
			return vals, stats.TotalWork, nil
		case "sssp":
			prior := ssPrior
			if !warm {
				prior = nil
			}
			st, stats, err := vc.IncrementalSSSP(g, src, prior, cfg)
			if err != nil {
				return nil, 0, err
			}
			if warm {
				ssPrior = st
			}
			return st.Dist, stats.TotalWork, nil
		case "pagerank":
			prior := prPrior
			if !warm {
				prior = nil
			}
			st, stats, err := vc.PrepareIncrementalPageRank(g, 0.85, 30, prior, cfg)()
			if err != nil {
				return nil, 0, err
			}
			if warm {
				prPrior = st
			}
			return st.Ranks(), stats.TotalWork, nil
		}
		return nil, 0, fmt.Errorf("-mutations supports pagerank, sssp, and hashmin, not %q", algo)
	}

	// Live-edge multiset so every generated batch validates: deletes
	// are drawn from edges known to exist.
	var live [][2]graph.VertexID
	c := g.Pin()
	for u := 0; u < g.N(); u++ {
		c.ForEachOut(graph.VertexID(u), func(v graph.VertexID, _ float64) {
			if graph.VertexID(u) <= v {
				live = append(live, [2]graph.VertexID{graph.VertexID(u), v})
			}
		})
	}
	g.Unpin(c)
	rng := rand.New(rand.NewSource(seed))
	makeBatch := func() []graph.Mutation {
		muts := make([]graph.Mutation, 0, batch)
		for i := 0; i < batch; i++ {
			if rng.Intn(100) < 55 || len(live) == 0 {
				u := graph.VertexID(rng.Intn(g.N()))
				v := graph.VertexID(rng.Intn(g.N()))
				if u == v {
					v = (v + 1) % graph.VertexID(g.N())
				}
				muts = append(muts, graph.Mutation{Op: graph.InsertEdge, U: u, V: v, W: 0.5 + 3*rng.Float64()})
				live = append(live, [2]graph.VertexID{u, v})
			} else {
				j := rng.Intn(len(live))
				muts = append(muts, graph.Mutation{Op: graph.DeleteEdge, U: live[j][0], V: live[j][1]})
				live = append(live[:j], live[j+1:]...)
			}
		}
		return muts
	}

	// Round 0 is the cold run that seeds the retained state.
	start := time.Now()
	if _, _, err := runInc(true); err != nil {
		return err
	}
	coldSeed := time.Since(start)

	var warmTime, coldTime time.Duration
	var warmWork, coldWork int64
	for round := 1; round <= rounds; round++ {
		if _, err := g.ApplyMutations(makeBatch()); err != nil {
			return fmt.Errorf("round %d: %w", round, err)
		}
		t0 := time.Now()
		warmVals, ww, err := runInc(true)
		if err != nil {
			return fmt.Errorf("round %d (incremental): %w", round, err)
		}
		warmTime += time.Since(t0)
		t0 = time.Now()
		coldVals, cw, err := runInc(false)
		if err != nil {
			return fmt.Errorf("round %d (recompute): %w", round, err)
		}
		coldTime += time.Since(t0)
		warmWork += ww
		coldWork += cw
		if !reflect.DeepEqual(warmVals, coldVals) {
			return fmt.Errorf("round %d: incremental result diverged from recompute", round)
		}
	}

	fmt.Println()
	fmt.Printf("evolving graph:        %d rounds x %d mutations (seed %d), final n=%d m=%d\n",
		rounds, batch, seed, g.N(), g.M())
	fmt.Printf("  cold seed run:       %v\n", coldSeed.Round(time.Microsecond))
	fmt.Printf("  incremental total:   %v (%d work units)\n", warmTime.Round(time.Microsecond), warmWork)
	fmt.Printf("  recompute total:     %v (%d work units)\n", coldTime.Round(time.Microsecond), coldWork)
	if warmWork > 0 {
		fmt.Printf("  work ratio:          %.2fx (every round byte-identical to recompute)\n",
			float64(coldWork)/float64(warmWork))
	}
	return nil
}
