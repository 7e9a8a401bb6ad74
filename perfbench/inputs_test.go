package main

import (
	"reflect"
	"testing"
	"time"

	"vcgraph/internal/graph"
)

// TestSameSeedSameInputs checks that one seed gives an identical
// arrival schedule, mutation stream and graphs, and another seed does
// not.
func TestSameSeedSameInputs(t *testing.T) {
	a := servingInputsFor(7, 5*time.Second)
	b := servingInputsFor(7, 5*time.Second)
	if !reflect.DeepEqual(a.mutAt, b.mutAt) || !reflect.DeepEqual(a.batches, b.batches) {
		t.Fatal("same seed, different mutation schedule or batches")
	}
	if !reflect.DeepEqual(a.evolving.edges, b.evolving.edges) ||
		!reflect.DeepEqual(a.small["small-rmat"].in.edges, b.small["small-rmat"].in.edges) {
		t.Fatal("same seed, different graphs")
	}
	c := servingInputsFor(8, 5*time.Second)
	if reflect.DeepEqual(a.mutAt, c.mutAt) || reflect.DeepEqual(a.evolving.edges, c.evolving.edges) {
		t.Fatal("different seeds gave identical inputs")
	}
	if len(a.mutAt) == 0 || len(a.batches) != len(a.mutAt) {
		t.Fatalf("%d batches for %d scheduled sends", len(a.batches), len(a.mutAt))
	}
	for i := 1; i < len(a.mutAt); i++ {
		if a.mutAt[i] < a.mutAt[i-1] {
			t.Fatalf("batch %d scheduled before batch %d", i, i-1)
		}
	}
	jobs := func(seed int64) []shortJob {
		next := shortJobs(seed)
		out := make([]shortJob, 200)
		for i := range out {
			out[i] = next()
		}
		return out
	}
	if !reflect.DeepEqual(jobs(7), jobs(7)) || reflect.DeepEqual(jobs(7), jobs(8)) {
		t.Fatal("reader job sequence does not follow the seed")
	}
	if !reflect.DeepEqual(analyticsMix(3), analyticsMix(3)) {
		t.Fatal("same seed, different analytics mix")
	}
	g1 := grid("g", 20, 20, rngFor(5, 2))
	g2 := grid("g", 20, 20, rngFor(5, 2))
	if !reflect.DeepEqual(g1.edges, g2.edges) {
		t.Fatal("same seed, different grid weights")
	}
}

// TestMutationBatchesApply checks that every generated batch applies
// cleanly in order: each delete names an edge that exists by then.
func TestMutationBatchesApply(t *testing.T) {
	in := powerLaw("pl", 500, 3, true, rngFor(1, 13))
	g := in.build()
	m := newMutator(in, rngFor(1, 16))
	inserts, total := 0, 0
	for b := 0; b < 200; b++ {
		batch := m.batch(mutBatchSize, mutInsertFrac)
		muts := make([]graph.Mutation, len(batch))
		for i, x := range batch {
			op := graph.InsertEdge
			if x.Op == "delete" {
				op = graph.DeleteEdge
			} else {
				inserts++
			}
			muts[i] = graph.Mutation{Op: op, U: graph.VertexID(x.U), V: graph.VertexID(x.V), W: x.W}
		}
		total += len(batch)
		if _, err := g.ApplyMutations(muts); err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
	}
	if frac := float64(inserts) / float64(total); frac < 0.5 || frac > 0.6 {
		t.Errorf("insert share %.3f, want about %.2f", frac, mutInsertFrac)
	}
}

func TestGeneratorsMakeSimpleGraphs(t *testing.T) {
	for _, in := range []*input{
		rmat("r", 10, 8, false, rngFor(1, 1)),
		grid("g", 15, 15, rngFor(1, 2)),
		powerLaw("p", 300, 3, true, rngFor(1, 3)),
	} {
		seen := edgeSet{}
		for _, e := range in.edges {
			u, v := int32(e[0]), int32(e[1])
			if u < 0 || v < 0 || int(u) >= in.n || int(v) >= in.n {
				t.Fatalf("%s: edge %v out of range", in.name, e)
			}
			if !seen.add(u, v) {
				t.Fatalf("%s: self-loop or duplicate edge %v", in.name, e)
			}
		}
	}
}
