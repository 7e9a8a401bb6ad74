package main

import (
	"math"
	"math/rand"
	"time"

	"vcgraph/internal/graph"
	"vcgraph/internal/service"
)

// The benchmark makes every input itself from the seed, so a change to
// the program's own generators cannot change what is measured. The
// program receives inputs only as explicit edge lists and JSON
// requests.

// rngFor derives an independent stream per input from the run seed, so
// that changing one input's size leaves the others unchanged.
func rngFor(seed int64, salt int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + salt))
}

// input is one generated graph in its wire form.
type input struct {
	name  string
	n     int
	edges [][]float64 // [u, v] or [u, v, w], undirected, no self-loops or duplicates
}

func (in *input) spec() service.GraphSpec {
	return service.GraphSpec{Name: in.name, N: in.n, Edges: in.edges}
}

// build constructs the benchmark's own copy of the graph (for oracles
// and direct layer calls) the same way the service builds it.
func (in *input) build() *graph.Graph {
	g := graph.New(in.n, false)
	for _, e := range in.edges {
		w := 1.0
		if len(e) == 3 {
			w = e[2]
		}
		g.AddWeightedEdge(graph.VertexID(e[0]), graph.VertexID(e[1]), w)
	}
	return g
}

// edgeSet deduplicates undirected edges.
type edgeSet map[[2]int32]bool

func (s edgeSet) add(u, v int32) bool {
	if u == v {
		return false
	}
	if u > v {
		u, v = v, u
	}
	k := [2]int32{u, v}
	if s[k] {
		return false
	}
	s[k] = true
	return true
}

// weight draws an integer weight in [1, 16]: integer weights keep
// shortest-path sums exact, so distances compare bit for bit whatever
// path an engine relaxes first.
func weight(r *rand.Rand) float64 { return float64(1 + r.Intn(16)) }

// rmat generates an undirected R-MAT graph with the Graph500
// parameters (a, b, c) = (0.57, 0.19, 0.19): 2^scale vertices and
// edgeFactor·2^scale edge draws, self-loops and duplicates dropped.
func rmat(name string, scale, edgeFactor int, weighted bool, r *rand.Rand) *input {
	n := 1 << scale
	draws := edgeFactor * n
	seen := make(edgeSet, draws)
	in := &input{name: name, n: n, edges: make([][]float64, 0, draws)}
	const a, b, c = 0.57, 0.19, 0.19
	for i := 0; i < draws; i++ {
		var u, v int32
		for bit := scale - 1; bit >= 0; bit-- {
			switch x := r.Float64(); {
			case x < a:
			case x < a+b:
				v |= 1 << bit
			case x < a+b+c:
				u |= 1 << bit
			default:
				u |= 1 << bit
				v |= 1 << bit
			}
		}
		if seen.add(u, v) {
			in.edges = append(in.edges, edge(u, v, weighted, r))
		}
	}
	return in
}

// grid generates a rows×cols lattice with random integer weights:
// diameter rows+cols-2, so frontiers stay narrow for hundreds of
// supersteps.
func grid(name string, rows, cols int, r *rand.Rand) *input {
	in := &input{name: name, n: rows * cols}
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			v := int32(i*cols + j)
			if j+1 < cols {
				in.edges = append(in.edges, edge(v, v+1, true, r))
			}
			if i+1 < rows {
				in.edges = append(in.edges, edge(v, v+int32(cols), true, r))
			}
		}
	}
	return in
}

// powerLaw generates a preferential-attachment graph: each new vertex
// links to k distinct earlier vertices picked in proportion to degree.
func powerLaw(name string, n, k int, weighted bool, r *rand.Rand) *input {
	in := &input{name: name, n: n}
	seen := make(edgeSet, n*k)
	var ends []int32 // every edge endpoint once: sampling it is sampling by degree
	for v := 1; v < n; v++ {
		for added, tries := 0, 0; added < k && added < v && tries < 16*k; tries++ {
			var u int32
			if len(ends) == 0 || r.Intn(4) == 0 {
				u = int32(r.Intn(v))
			} else {
				u = ends[r.Intn(len(ends))]
			}
			if seen.add(int32(v), u) {
				in.edges = append(in.edges, edge(int32(v), u, weighted, r))
				ends = append(ends, int32(v), u)
				added++
			}
		}
	}
	return in
}

func edge(u, v int32, weighted bool, r *rand.Rand) []float64 {
	if weighted {
		return []float64{float64(u), float64(v), weight(r)}
	}
	return []float64{float64(u), float64(v)}
}

// mutator generates mutation batches against a live copy of the edge
// set, so every delete names an edge that exists when it applies.
type mutator struct {
	r     *rand.Rand
	n     int
	edges [][2]int32       // live edges, for uniform delete picks
	index map[[2]int32]int // edge -> position in edges
}

func newMutator(in *input, r *rand.Rand) *mutator {
	m := &mutator{r: r, n: in.n, index: make(map[[2]int32]int, len(in.edges))}
	for _, e := range in.edges {
		k := key(int32(e[0]), int32(e[1]))
		m.index[k] = len(m.edges)
		m.edges = append(m.edges, k)
	}
	return m
}

func key(u, v int32) [2]int32 {
	if u > v {
		u, v = v, u
	}
	return [2]int32{u, v}
}

// batch draws size mutations, insertFrac of them inserts of new edges.
func (m *mutator) batch(size int, insertFrac float64) []service.MutationSpec {
	out := make([]service.MutationSpec, 0, size)
	for len(out) < size {
		if m.r.Float64() < insertFrac || len(m.edges) == 0 {
			u, v := int32(m.r.Intn(m.n)), int32(m.r.Intn(m.n))
			k := key(u, v)
			if u == v {
				continue
			}
			if _, dup := m.index[k]; dup {
				continue
			}
			m.index[k] = len(m.edges)
			m.edges = append(m.edges, k)
			out = append(out, service.MutationSpec{Op: "insert", U: int(u), V: int(v), W: weight(m.r)})
			continue
		}
		i := m.r.Intn(len(m.edges))
		k := m.edges[i]
		last := m.edges[len(m.edges)-1]
		m.edges[i] = last
		m.index[last] = i
		m.edges = m.edges[:len(m.edges)-1]
		delete(m.index, k)
		out = append(out, service.MutationSpec{Op: "delete", U: int(k[0]), V: int(k[1])})
	}
	return out
}

// poisson returns the arrival offsets of a Poisson process of the
// given rate (per second) over d.
func poisson(rate float64, d time.Duration, r *rand.Rand) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += r.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= d {
			return out
		}
		out = append(out, at)
	}
}

func finite(x float64) bool { return !math.IsInf(x, 0) && x < 1e300 }
