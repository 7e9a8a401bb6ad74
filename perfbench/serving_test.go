package main

import (
	"testing"
	"time"
)

// TestServingRunIsCorrect plays a short traced serving run: reader,
// writer, repair chain and the offline replay check, under the race
// detector when run with -race.
func TestServingRunIsCorrect(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a server and plays two one-second windows")
	}
	r := &run{workload: "serving", seed: 3, seconds: 2 * time.Second, trace: true,
		e2e: map[string]float64{}, layer: map[string]float64{}}
	tr := newTracer()
	if err := runServing(r, tr); err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 || r.attempted == 0 {
		t.Fatalf("%d of %d operations failed: %v", r.failed, r.attempted, r.errs)
	}
	for _, m := range []string{"setup_s", "jobs_per_s", "job_p50_ms"} {
		if r.e2e[m] <= 0 {
			t.Errorf("%s = %v", m, r.e2e[m])
		}
	}
	for _, m := range []string{"service.submit_us", "service.mutate_us", "graph.apply_us", "vc.inc_cc.repair_us"} {
		if r.layer[m] <= 0 {
			t.Errorf("%s = %v", m, r.layer[m])
		}
	}
	if len(tr.Spans()) == 0 {
		t.Error("traced run recorded no spans")
	}
}
