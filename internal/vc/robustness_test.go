package vc

import (
	"testing"

	"vcgraph/internal/graph"
)

// Degenerate-input robustness: every algorithm must handle empty,
// single-vertex, and two-vertex graphs without panicking and with
// sensible results.

func tiny() map[string]*graph.Graph {
	pair := graph.Path(2)
	return map[string]*graph.Graph{
		"empty":     graph.New(0, false),
		"singleton": graph.New(1, false),
		"pair":      pair,
		"isolated3": graph.New(3, false),
	}
}

func tinyDirected() map[string]*graph.Graph {
	pair := graph.New(2, true)
	pair.AddEdge(0, 1)
	pair.EnsureIn()
	return map[string]*graph.Graph{
		"empty":     graph.New(0, true),
		"singleton": graph.New(1, true),
		"pair":      pair,
	}
}

func TestDegenerateUndirectedInputs(t *testing.T) {
	for name, g := range tiny() {
		g := g
		t.Run(name, func(t *testing.T) {
			if _, err := PreparePageRank(g, 0.85, 5, Config{})(); err != nil {
				t.Fatalf("pagerank: %v", err)
			}
			if _, err := PrepareHashMinCC(g, Config{})(); err != nil {
				t.Fatalf("hashmin: %v", err)
			}
			if _, err := SVCC(g, Config{}); err != nil {
				t.Fatalf("sv: %v", err)
			}
			if _, err := Diameter(g, Config{}); err != nil {
				t.Fatalf("diameter: %v", err)
			}
			if _, err := ColoringMIS(g, Config{}); err != nil {
				t.Fatalf("coloring: %v", err)
			}
			if _, err := MaximalIndependentSet(g, Config{}); err != nil {
				t.Fatalf("mis: %v", err)
			}
			if _, err := MaxWeightMatching(g, Config{}); err != nil {
				t.Fatalf("matching: %v", err)
			}
			if _, err := MCST(g, Config{}); err != nil {
				t.Fatalf("mcst: %v", err)
			}
			if _, err := PrepareKCore(g, Config{})(); err != nil {
				t.Fatalf("kcore: %v", err)
			}
			if _, err := Triangles(g, Config{}); err != nil {
				t.Fatalf("triangles: %v", err)
			}
			if _, err := LabelPropagation(g, 4, Config{}); err != nil {
				t.Fatalf("lpa: %v", err)
			}
			if _, err := DoubleSweepDiameter(g, graph.NoVertex, Config{}); err != nil {
				t.Fatalf("doublesweep: %v", err)
			}
			if _, err := SemiClustering(g, SemiClusterConfig{Iterations: 2}, Config{}); err != nil {
				t.Fatalf("semicluster: %v", err)
			}
			if g.N() > 0 {
				if _, err := PrepareSSSP(g, 0, Config{})(); err != nil {
					t.Fatalf("sssp: %v", err)
				}
				if _, err := Betweenness(g, []VertexID{0}, Config{}); err != nil {
					t.Fatalf("betweenness: %v", err)
				}
			}
		})
	}
}

func TestDegenerateDirectedInputs(t *testing.T) {
	for name, g := range tinyDirected() {
		g := g
		t.Run(name, func(t *testing.T) {
			if _, err := SCC(g, Config{}); err != nil {
				t.Fatalf("scc: %v", err)
			}
			if _, err := WCC(g, Config{}); err != nil {
				t.Fatalf("wcc: %v", err)
			}
			q := graph.New(1, true)
			q.Labels = []string{"A"}
			q.EnsureIn()
			if g.Labels == nil {
				g.Labels = make([]string, g.N())
			}
			if _, err := GraphSimulation(g, q, Config{}); err != nil {
				t.Fatalf("simulation: %v", err)
			}
			if _, err := DualSimulation(g, q, Config{}); err != nil {
				t.Fatalf("dualsim: %v", err)
			}
			if _, err := StrongSimulation(g, q, Config{}); err != nil {
				t.Fatalf("strongsim: %v", err)
			}
		})
	}
}

func TestDegenerateResultsAreSane(t *testing.T) {
	g := graph.Path(2)
	d, err := Diameter(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if d.Diameter != 1 {
		t.Fatalf("P2 diameter %d", d.Diameter)
	}
	m, err := MCST(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Edges) != 1 {
		t.Fatalf("P2 MST edges %d", len(m.Edges))
	}
	kc, err := PrepareKCore(g, Config{})()
	if err != nil {
		t.Fatal(err)
	}
	if kc.Core[0] != 1 || kc.Core[1] != 1 {
		t.Fatalf("P2 coreness %v", kc.Core)
	}
	sc, err := SemiClustering(g, SemiClusterConfig{Iterations: 3}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Top) == 0 {
		t.Fatal("no clusters on P2")
	}
}

func TestSingleVertexTreePipelines(t *testing.T) {
	g := graph.New(1, false)
	tr, err := PrePostOrder(g, 0, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Pre[0] != 0 || tr.Post[0] != 0 {
		t.Fatalf("pre/post = %d/%d", tr.Pre[0], tr.Post[0])
	}
	et, err := EulerTour(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(et.Walk(g, 0)) != 0 {
		t.Fatal("non-empty tour on single vertex")
	}
}

func TestBCCTinyConnected(t *testing.T) {
	for _, n := range []int{1, 2, 3} {
		g := graph.Path(n)
		res, err := BCC(g, Config{})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(res.EdgeComp) != g.M() {
			t.Fatalf("n=%d: %d labels for %d edges", n, len(res.EdgeComp), g.M())
		}
	}
}
