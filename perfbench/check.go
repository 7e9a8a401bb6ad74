package main

import (
	"encoding/csv"
	"fmt"
	"math"
	"os"
	"strings"

	"vcgraph/internal/graph"
	"vcgraph/internal/seq"
)

// PageRank tolerances. Engines that run exactly K folds (pregel,
// blockcentric, auto) must match K-step power iteration to rounding;
// engines that iterate until every rank moves less than eps (gas,
// async) must match the converged vector within a bound that scales
// with eps and 1/(1-alpha).
const (
	prFixedKTol  = 1e-9 // relative, against seq.PageRank with the same K
	prConvTol    = 1e-3 // relative, plus prConvAbsEps·eps absolute
	prConvAbsEps = 20
	prConvIters  = 200 // power-iteration steps for the converged reference
	prAlpha      = 0.85
)

// oracle holds the from-scratch answers for one static input, computed
// by internal/seq outside the timed path.
type oracle struct {
	n          int
	src        int
	dist       []float64
	reachable  int
	comp       []graph.VertexID
	components int
	core       []int32 // nil unless kcore runs on the input
	degeneracy int32
	prK        map[int][]float64
	prConv     []float64
}

func newOracle(g *graph.Graph, src int, ks []int, withCore bool) *oracle {
	var ops seq.Ops
	o := &oracle{n: g.N(), src: src, prK: make(map[int][]float64)}
	o.dist = seq.Dijkstra(g, graph.VertexID(src), &ops)
	for _, d := range o.dist {
		if finite(d) {
			o.reachable++
		}
	}
	o.comp = seq.Components(g, &ops)
	for v, c := range o.comp {
		if int(c) == v {
			o.components++
		}
	}
	if withCore {
		o.core = seq.KCore(g, &ops)
		for _, c := range o.core {
			o.degeneracy = max(o.degeneracy, c)
		}
	}
	for _, k := range ks {
		o.prK[k] = seq.PageRank(g, prAlpha, k, &ops)
	}
	o.prConv = seq.PageRank(g, prAlpha, prConvIters, &ops)
	return o
}

// fixedK reports whether an engine's PageRank runs exactly K folds.
func fixedK(engine string) bool { return engine != "gas" && engine != "async" }

// checkVerdict compares a job's one-line verdict with the oracle's.
func (o *oracle) checkVerdict(algo, engine string, k int, eps float64, verdict string) error {
	var want string
	switch algo {
	case "sssp":
		want = fmt.Sprintf("%d vertices reachable from %d", o.reachable, o.src)
	case "cc":
		want = fmt.Sprintf("%d components", o.components)
	case "kcore":
		want = fmt.Sprintf("degeneracy %d", o.degeneracy)
	case "pagerank":
		// Near-uniform ranks (the grid) make the top vertex a near-tie,
		// so the reported one must carry the top rank within tolerance.
		var top int
		var rank float64
		if _, err := fmt.Sscanf(verdict, "top vertex %d with rank %g", &top, &rank); err != nil || top < 0 || top >= o.n {
			return fmt.Errorf("%s/%s verdict %q: no top vertex", algo, engine, verdict)
		}
		ref := o.prConv
		if fixedK(engine) {
			ref = o.prK[k]
		}
		if err := o.checkValue(algo, engine, k, eps, top, ref[argmax(ref)]); err != nil {
			return fmt.Errorf("%s/%s verdict %q: top rank is %.12g: %w", algo, engine, verdict, ref[argmax(ref)], err)
		}
		return nil
	default:
		return fmt.Errorf("no oracle for %s", algo)
	}
	if verdict != want {
		return fmt.Errorf("%s/%s verdict %q, want %q", algo, engine, verdict, want)
	}
	return nil
}

// checkValue compares one vertex's value: exactly for distances,
// component labels and coreness, within the stated tolerance for
// PageRank.
func (o *oracle) checkValue(algo, engine string, k int, eps float64, v int, got float64) error {
	var want float64
	switch algo {
	case "sssp":
		want = o.dist[v]
		if !finite(want) && !finite(got) {
			return nil
		}
	case "cc":
		want = float64(o.comp[v])
	case "kcore":
		want = float64(o.core[v])
	case "pagerank":
		if fixedK(engine) {
			want = o.prK[k][v]
			if math.Abs(got-want) <= prFixedKTol*math.Abs(want) {
				return nil
			}
		} else {
			want = o.prConv[v]
			if math.Abs(got-want) <= prConvTol*math.Abs(want)+prConvAbsEps*eps {
				return nil
			}
		}
		return fmt.Errorf("%s/%s vertex %d = %.12g, want %.12g", algo, engine, v, got, want)
	default:
		return fmt.Errorf("no oracle for %s", algo)
	}
	if got != want {
		return fmt.Errorf("%s/%s vertex %d = %v, want %v", algo, engine, v, got, want)
	}
	return nil
}

// checkVector compares a whole result vector (direct layer calls).
func (o *oracle) checkVector(algo, engine string, k int, eps float64, vals []float64) error {
	if len(vals) != o.n {
		return fmt.Errorf("%s/%s: %d values, want %d", algo, engine, len(vals), o.n)
	}
	for v, x := range vals {
		if err := o.checkValue(algo, engine, k, eps, v, x); err != nil {
			return err
		}
	}
	return nil
}

func argmax(xs []float64) int {
	best, bestV := -1.0, 0
	for v, x := range xs {
		if x > best {
			best, bestV = x, v
		}
	}
	return bestV
}

// table1Golden is the committed Table 1 CSV at 4 workers; goldenCols are
// its worker-independent columns (everything but the P-scaled pt_* and
// ratio_*), which every worker count must reproduce. The golden records
// the paper-verdict mismatch of T1.14 as measured, so it is not a
// failure here.
const table1Golden = "cmd/table1/testdata/table1_w4.csv"

var goldenCols = []int{0, 1, 2, 3, 4, 5, 8, 9, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21}

func readGolden(path string) (map[string][]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	recs, err := csv.NewReader(f).ReadAll()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(recs) < 2 {
		return nil, fmt.Errorf("%s: no rows", path)
	}
	byID := make(map[string][]string, len(recs)-1)
	for _, r := range recs[1:] {
		byID[r[0]] = r
	}
	return byID, nil
}

// checkTable1 compares a rendered Table 1 CSV with the golden rows.
func checkTable1(rendered string, golden map[string][]string) error {
	recs, err := csv.NewReader(strings.NewReader(rendered)).ReadAll()
	if err != nil {
		return err
	}
	if len(recs)-1 != len(golden) {
		return fmt.Errorf("table1: %d rows, golden has %d", len(recs)-1, len(golden))
	}
	for _, r := range recs[1:] {
		w, ok := golden[r[0]]
		if !ok {
			return fmt.Errorf("table1: row %s not in golden", r[0])
		}
		for _, c := range goldenCols {
			if r[c] != w[c] {
				return fmt.Errorf("table1: row %s column %d = %q, golden %q", r[0], c, r[c], w[c])
			}
		}
	}
	return nil
}
