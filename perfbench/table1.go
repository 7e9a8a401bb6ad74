package main

import (
	"fmt"
	"sort"
	"time"

	"vcgraph/internal/core"
	"vcgraph/internal/vc"
)

// table1: regenerate the paper's Table 1 through the core registry at
// both scales. The registry fixes every input, so the seed does not
// apply. It is the only workload with thousands of near-empty
// supersteps (per-superstep fixed cost, the private-pool path, barrier
// overhead) and the only one running the algorithms the daemon does
// not serve.
const (
	table1Workers = 2
	// table1Tail asks for p90, but a pass has only 20 jobs (rows), and
	// the ten-samples-beyond rule caps the printed tail at the median.
	table1Tail = 0.90
	// table1WarmRow is run at both scales during set-up, so lazy
	// initialisation is not charged to the first timed row.
	table1WarmRow = "T1.01"
)

func runTable1(r *run, tr *Tracer) error {
	golden, err := readGolden(table1Golden)
	if err != nil {
		return err
	}
	cfg := vc.Config{Workers: table1Workers}
	build := func() ([]*core.Experiment, error) {
		exps := core.Experiments()
		sort.Slice(exps, func(i, j int) bool { return exps[i].Row < exps[j].Row })
		for _, e := range exps {
			if e.ID == table1WarmRow {
				_, err := core.RunExperiment(e, cfg)
				return exps, err
			}
		}
		return nil, fmt.Errorf("warm-up row %s not in the registry", table1WarmRow)
	}
	exps, setup, err := timeSetups(setupRepeats, build, func([]*core.Experiment) {})
	if err != nil {
		return err
	}
	r.e2e["setup_s"] = setup
	if !r.trace {
		table1Window(r, nil, exps, cfg, golden, r.seconds).e2e(r, table1Tail)
		return nil
	}
	base := table1Window(r, nil, exps, cfg, golden, r.seconds/2)
	w := table1Window(r, tr, exps, cfg, golden, r.seconds/2)
	w.e2e(r, table1Tail)
	r.layer["bench.trace_overhead"] = w.p50()/base.p50() - 1
	var steps, jobNS, alloc float64
	for _, row := range w.rows {
		r.layer["core."+row.id+"_s"] = row.seconds
		steps += float64(row.supersteps)
		jobNS += row.seconds * 1e9
		alloc += row.allocBytes
	}
	r.layer["core.supersteps"] = steps
	r.layer["runtime.supersteps"] = steps
	// Each job also runs its sequential baseline, which this includes.
	r.layer["runtime.superstep_us"] = jobNS / steps / 1e3
	// Jobs run one at a time, so the per-run allocation delta is the job's.
	r.layer["runtime.alloc_mb"] = alloc / float64(len(w.rows)) / (1 << 20)
	return nil
}

type table1Row struct {
	id         string
	seconds    float64 // both scales
	supersteps int
	allocBytes float64
}

type table1Result struct {
	window
	rows []table1Row // of the first pass
}

// table1Window regenerates the table in whole passes until dur has
// passed (at least once). A job is one row: Experiment.Run at both
// scales. Rows are long enough that their times are steady; the
// smallest single-scale runs take about a millisecond.
func table1Window(r *run, tr *Tracer, exps []*core.Experiment, cfg vc.Config, golden map[string][]string, dur time.Duration) *table1Result {
	w := &table1Result{}
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < dur; pass++ {
		passStart := time.Now()
		var outs []*core.Outcome
		for i, e := range exps {
			req := int64(pass*len(exps) + i + 1)
			sp := tr.Begin("core.run", 0, req)
			t0 := time.Now()
			o, err := core.RunExperiment(e, cfg)
			d := time.Since(t0)
			tr.End(sp)
			w.jobs++
			if !r.op(err) {
				continue
			}
			outs = append(outs, o)
			w.lat = append(w.lat, d.Seconds()*1000)
			if pass == 0 {
				w.rows = append(w.rows, table1Row{
					id:         e.ID,
					seconds:    d.Seconds(),
					supersteps: o.SmallM.VCStats.NumSupersteps() + o.LargeM.VCStats.NumSupersteps(),
					allocBytes: float64(o.SmallM.VCStats.TotalAllocDelta + o.LargeM.VCStats.TotalAllocDelta),
				})
			}
		}
		// The rows count as correct once the table matches the golden.
		if err := checkTable1(core.RenderCSV(outs), golden); r.op(err) {
			w.ok += len(outs)
		}
		r.note("table1 pass=%d table1_s=%.3f", pass, time.Since(passStart).Seconds())
	}
	w.elapsed = time.Since(start)
	return w
}
