package vc

import (
	"testing"

	"vcgraph/internal/graph"
)

func TestPageRankConvergeMatchesFixedK(t *testing.T) {
	g := graph.PreferentialAttachment(500, 3, 4)
	conv, iters, err := PageRankConverge(g, 0.85, 1e-12, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	// A long fixed-K run reaches the same fixpoint.
	fixed, err := PreparePageRank(g, 0.85, 200, Config{Workers: 4})()
	if err != nil {
		t.Fatal(err)
	}
	for v := range fixed.Ranks {
		if !almostEqual(conv.Ranks[v], fixed.Ranks[v], 1e-8) {
			t.Fatalf("vertex %d: converge=%v fixed=%v", v, conv.Ranks[v], fixed.Ranks[v])
		}
	}
	if iters < 10 || iters > 220 {
		t.Fatalf("converged in %d supersteps; implausible", iters)
	}
}

func TestPageRankConvergeTightensWithEps(t *testing.T) {
	g := graph.PreferentialAttachment(300, 2, 8)
	_, loose, err := PageRankConverge(g, 0.85, 1e-3, Config{})
	if err != nil {
		t.Fatal(err)
	}
	_, tight, err := PageRankConverge(g, 0.85, 1e-10, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if tight <= loose {
		t.Fatalf("tight eps %d supersteps <= loose %d", tight, loose)
	}
}

// twoCliques builds two K4s joined by one light bridge, with heavy
// intra-clique edges — semi-clustering must surface a clique.
func twoCliques() *graph.Graph {
	g := graph.New(8, false)
	for base := graph.VertexID(0); base <= 4; base += 4 {
		for i := graph.VertexID(0); i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				g.AddWeightedEdge(base+i, base+j, 10)
			}
		}
	}
	g.AddWeightedEdge(3, 4, 1) // bridge
	g.SortAdjacency()
	return g
}

func TestSemiClusteringFindsCliques(t *testing.T) {
	g := twoCliques()
	res, err := SemiClustering(g, SemiClusterConfig{CMax: 3, MMax: 4, Iterations: 8}, Config{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Top) == 0 {
		t.Fatal("no clusters found")
	}
	best := res.Top[0]
	if len(best.Members) != 4 {
		t.Fatalf("best cluster %v (score %v), want a 4-clique", best.Members, best.Score)
	}
	// Must be one of the two cliques.
	lo, hi := best.Members[0], best.Members[3]
	if !((lo == 0 && hi == 3) || (lo == 4 && hi == 7)) {
		t.Fatalf("best cluster %v is not a clique", best.Members)
	}
	// Its score: I=60 (6 edges of weight 10), B=1 (cliques touch the
	// bridge... only cluster {0..3} or {4..7} has B=1), score=(60-0.5)/6.
	if !almostEqual(best.Score, (60-0.5*1)/6, 1e-12) {
		t.Fatalf("score = %v", best.Score)
	}
}

func TestSemiClusteringInvariants(t *testing.T) {
	g := graph.RandomConnected(60, 180, 5)
	graph.RandomWeights(g, 6)
	sc := SemiClusterConfig{CMax: 2, MMax: 4, Iterations: 6}
	res, err := SemiClustering(g, sc, Config{Workers: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for v, clusters := range res.PerVertex {
		if len(clusters) == 0 || len(clusters) > sc.CMax {
			t.Fatalf("vertex %d holds %d clusters", v, len(clusters))
		}
		for _, c := range clusters {
			if len(c.Members) == 0 || len(c.Members) > sc.MMax {
				t.Fatalf("cluster size %d out of bounds", len(c.Members))
			}
			for i := 1; i < len(c.Members); i++ {
				if c.Members[i] <= c.Members[i-1] {
					t.Fatalf("members not sorted/unique: %v", c.Members)
				}
			}
		}
	}
	// Top list is sorted by score, deduplicated.
	for i := 1; i < len(res.Top); i++ {
		if res.Top[i].Score > res.Top[i-1].Score {
			t.Fatal("top clusters not sorted by score")
		}
	}
}

func TestSemiClusteringDeterministicAcrossWorkers(t *testing.T) {
	g := graph.RandomConnected(40, 100, 9)
	graph.RandomWeights(g, 10)
	sc := SemiClusterConfig{Iterations: 5}
	a, err := SemiClustering(g, sc, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := SemiClustering(g, sc, Config{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Top) != len(b.Top) {
		t.Fatalf("top sizes differ: %d vs %d", len(a.Top), len(b.Top))
	}
	for i := range a.Top {
		if a.Top[i].key() != b.Top[i].key() {
			t.Fatalf("top[%d] differs: %v vs %v", i, a.Top[i].Members, b.Top[i].Members)
		}
	}
}

func TestSemiClusterScoreFormula(t *testing.T) {
	// A triangle with unit weights, clusters up to 3 members: the full
	// triangle scores (3 - 0.5*0)/3 = 1; any pair scores (1-0.5*2)/1 = 0.
	g := graph.New(3, false)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(0, 2)
	res, err := SemiClustering(g, SemiClusterConfig{CMax: 4, MMax: 3, Iterations: 6}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	best := res.Top[0]
	if len(best.Members) != 3 || !almostEqual(best.Score, 1, 1e-12) {
		t.Fatalf("best = %v score %v, want the full triangle at score 1", best.Members, best.Score)
	}
}

func TestSemiClusterMMaxRespected(t *testing.T) {
	g := graph.Complete(8)
	res, err := SemiClustering(g, SemiClusterConfig{CMax: 2, MMax: 3, Iterations: 6}, Config{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Top {
		if len(c.Members) > 3 {
			t.Fatalf("cluster %v exceeds MMax", c.Members)
		}
	}
}
