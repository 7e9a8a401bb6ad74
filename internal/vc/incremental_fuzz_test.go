package vc

import (
	"reflect"
	"testing"

	"vcgraph/internal/async"
	"vcgraph/internal/graph"
)

// FuzzMutationScript drives the evolving-graph stack end to end from
// raw bytes: the input decodes to a sequence of mutation batches
// (inserts with derived weights, deletes that may or may not exist —
// invalid batches must be rejected atomically), and after every applied
// batch the incrementally maintained CC/SSSP/PageRank answers are
// differentially checked against from-scratch runs on the mutated
// graph. Any divergence — a wrong seed set, a delta-overlay
// enumeration mismatch, a stale memoized rank — is a crash the fuzzer
// can minimize.
func FuzzMutationScript(f *testing.F) {
	f.Add(int64(1), []byte{2, 0, 1, 5, 1, 3, 9, 4, 2, 2})
	f.Add(int64(3), []byte{1, 7, 3, 3, 0, 2, 2, 5, 5, 8, 8, 1, 1, 0})
	f.Add(int64(9), []byte{0, 1, 1, 2, 4, 4, 6, 6, 3, 1, 2, 3, 0, 0, 0, 5})
	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		const n, k = 14, 6
		g := graph.RandomConnected(n, 24, seed)
		graph.RandomWeights(g, seed+1)
		g.RebuildEvery = 5 // cross rebuild boundaries often
		var (
			ccSt *IncCCState
			ssSt *IncSSSPState
			prSt *IncPRState
		)
		check := func() {
			var err error
			ccSt, _, err = IncrementalCC(g, ccSt, IncConfig{})
			if err != nil {
				t.Fatalf("incremental CC: %v", err)
			}
			labels, _, err := async.PrepareConnectedComponents(g, async.Config{})()
			if err != nil {
				t.Fatalf("async CC: %v", err)
			}
			if !reflect.DeepEqual(ccSt.Labels, labels) {
				t.Fatalf("incremental CC %v != from-scratch %v", ccSt.Labels, labels)
			}
			ssSt, _, err = IncrementalSSSP(g, 0, ssSt, IncConfig{})
			if err != nil {
				t.Fatalf("incremental SSSP: %v", err)
			}
			dist, _, err := async.PrepareSSSP(g, 0, async.Config{})()
			if err != nil {
				t.Fatalf("async SSSP: %v", err)
			}
			if !reflect.DeepEqual(ssSt.Dist, dist) {
				t.Fatalf("incremental SSSP %v != from-scratch %v", ssSt.Dist, dist)
			}
			prSt, _, err = PrepareIncrementalPageRank(g, 0.85, k, prSt, IncConfig{})()
			if err != nil {
				t.Fatalf("incremental PageRank: %v", err)
			}
			scratch, _, err := PrepareIncrementalPageRank(g, 0.85, k, nil, IncConfig{})()
			if err != nil {
				t.Fatalf("cold PageRank: %v", err)
			}
			if !reflect.DeepEqual(prSt.Hist, scratch.Hist) {
				t.Fatal("incremental PageRank differs from cold recompute")
			}
		}
		check() // cold baselines
		off, batches := 0, 0
		for off+3 <= len(script) && batches < 8 {
			size := 1 + int(script[off]%3)
			off++
			var muts []graph.Mutation
			for j := 0; j < size && off+3 <= len(script); j++ {
				op, bu, bv := script[off], script[off+1], script[off+2]
				off += 3
				u, v := VertexID(int(bu)%n), VertexID(int(bv)%n)
				if op%2 == 0 {
					muts = append(muts, graph.Mutation{Op: graph.InsertEdge, U: u, V: v, W: 0.25 + float64(op%8)})
				} else {
					muts = append(muts, graph.Mutation{Op: graph.DeleteEdge, U: u, V: v})
				}
			}
			if len(muts) == 0 {
				break
			}
			epoch := g.Epoch()
			if _, err := g.ApplyMutations(muts); err != nil {
				// Rejected batches must be atomic: no epoch bump, no
				// partial application visible to the next query.
				if g.Epoch() != epoch {
					t.Fatalf("rejected batch bumped epoch: %v", err)
				}
				continue
			}
			batches++
			check()
		}
	})
}
