package main

import (
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"testing"
)

// TestSpecMatchesBenchmark checks BENCHMARK.json against its format
// and against spec.json, which carries what that format has no key for:
// every per-layer metric must say which end-to-end metric it moves, on
// which workloads.
func TestSpecMatchesBenchmark(t *testing.T) {
	raw, err := os.ReadFile("../" + benchmarkFile)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	var got []string
	for k := range keys {
		got = append(got, k)
	}
	sort.Strings(got)
	want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}
	if len(got) != len(want) {
		t.Fatalf("BENCHMARK.json keys %v, want %v", got, want)
	}
	var b struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	specRaw, err := os.ReadFile("spec.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads map[string]json.RawMessage `json:"workloads"`
		EndToEnd  map[string]string          `json:"end_to_end"`
		PerLayer  map[string]struct {
			Moves     string   `json:"moves"`
			Workloads []string `json:"workloads"`
			Unit      string   `json:"unit"`
			Better    string   `json:"better"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(specRaw, &spec); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("bad or repeated name %q", n)
		}
		seen[n] = true
	}
	for _, w := range b.Workloads {
		checkName(w.Name)
		if _, ok := spec.Workloads[w.Name]; !ok {
			t.Errorf("workload %s has no parameters in spec.json", w.Name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if len(spec.Workloads) != len(b.Workloads) {
		t.Errorf("spec.json describes %d workloads, BENCHMARK.json %d", len(spec.Workloads), len(b.Workloads))
	}
	setup := false
	for _, m := range b.EndToEnd {
		checkName(m.Name)
		if !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: unit %q bound %v", m.Name, m.Unit, m.Bound)
		}
		if spec.EndToEnd[m.Name] == "" {
			t.Errorf("end-to-end metric %s has no meaning in spec.json", m.Name)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower better")
	}
	if n := len(b.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	workloads := map[string]bool{}
	for _, w := range b.Workloads {
		workloads[w.Name] = true
	}
	for _, m := range b.PerLayer {
		checkName(m.Name)
		s, ok := spec.PerLayer[m.Name]
		switch {
		case !ok:
			t.Errorf("per-layer metric %s missing from spec.json", m.Name)
			continue
		case s.Moves == "" || len(s.Workloads) == 0:
			t.Errorf("per-layer metric %s: no end-to-end metric or workload to move", m.Name)
		case s.Unit != m.Unit || s.Better != m.Better || !unitRE.MatchString(m.Unit):
			t.Errorf("per-layer metric %s: unit/better %s/%s in spec.json, %s/%s in BENCHMARK.json", m.Name, s.Unit, s.Better, m.Unit, m.Better)
		}
		for _, w := range s.Workloads {
			if !workloads[w] {
				t.Errorf("per-layer metric %s names unknown workload %s", m.Name, w)
			}
		}
	}
	if len(spec.PerLayer) != len(b.PerLayer) {
		t.Errorf("spec.json maps %d per-layer metrics, BENCHMARK.json lists %d", len(spec.PerLayer), len(b.PerLayer))
	}
}
