package main

import (
	"encoding/csv"
	"strings"
	"testing"

	rt "vcgraph/internal/runtime"
)

// TestCheckerRejectsCorruptedResult runs real engines on a small grid,
// checks their outputs pass, then corrupts each and checks it fails.
func TestCheckerRejectsCorruptedResult(t *testing.T) {
	in := grid("g", 12, 12, rngFor(3, 2))
	g := in.build()
	or := newOracle(g, 0, []int{analyticsK}, true)
	pool := rt.NewPool(2)
	defer pool.Close()
	for _, c := range []struct{ engine, algo string }{
		{"pregel", "sssp"}, {"pregel", "cc"}, {"pregel", "kcore"}, {"pregel", "pagerank"},
		{"gas", "pagerank"}, {"async", "sssp"}, {"blockcentric", "cc"}, {"auto", "pagerank"},
	} {
		run, err := prepareDirect(g, c.engine, c.algo, 0, analyticsK, analyticsEps, pool)
		if err != nil {
			t.Fatal(err)
		}
		out, err := run()
		if err != nil {
			t.Fatal(err)
		}
		if err := or.checkVector(c.algo, c.engine, analyticsK, analyticsEps, out.vals); err != nil {
			t.Fatalf("%s/%s: correct output rejected: %v", c.engine, c.algo, err)
		}
		v := len(out.vals) / 2
		bad := append([]float64(nil), out.vals...)
		switch c.algo {
		case "pagerank":
			bad[v] *= 1.01
		default:
			bad[v]++
		}
		if err := or.checkVector(c.algo, c.engine, analyticsK, analyticsEps, bad); err == nil {
			t.Errorf("%s/%s: corrupted vertex %d accepted", c.engine, c.algo, v)
		}
		if err := or.checkValue(c.algo, c.engine, analyticsK, analyticsEps, v, bad[v]); err == nil {
			t.Errorf("%s/%s: corrupted point query accepted", c.engine, c.algo)
		}
	}
	if err := or.checkVerdict("cc", "pregel", 0, 0, "1 components"); err != nil {
		t.Errorf("correct cc verdict rejected: %v", err)
	}
	if err := or.checkVerdict("cc", "pregel", 0, 0, "2 components"); err == nil {
		t.Error("wrong cc verdict accepted")
	}
	if err := or.checkVerdict("sssp", "pregel", 0, 0, "143 vertices reachable from 0"); err == nil {
		t.Error("wrong sssp verdict accepted")
	}
}

func TestTable1CheckUsesWorkerIndependentColumns(t *testing.T) {
	golden, err := readGolden("../" + table1Golden)
	if err != nil {
		t.Fatal(err)
	}
	render := func(edit func(rec []string)) string {
		var b strings.Builder
		w := csv.NewWriter(&b)
		w.Write(make([]string, 22)) // header
		for _, id := range sortedKeys(golden) {
			rec := append([]string(nil), golden[id]...)
			edit(rec)
			w.Write(rec)
		}
		w.Flush()
		return b.String()
	}
	if err := checkTable1(render(func([]string) {}), golden); err != nil {
		t.Fatalf("golden rejected: %v", err)
	}
	// pt_small scales with the worker count, so it may differ.
	if err := checkTable1(render(func(r []string) { r[6] = "1" }), golden); err != nil {
		t.Fatalf("P-scaled column checked: %v", err)
	}
	// supersteps_large does not.
	if err := checkTable1(render(func(r []string) {
		if r[0] == "T1.05" {
			r[13] += "0"
		}
	}), golden); err == nil {
		t.Fatal("corrupted superstep count accepted")
	}
}
