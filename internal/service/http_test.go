package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"vcgraph/internal/graph"
	"vcgraph/internal/vc"
)

func doJSON(t *testing.T, method, url string, body any, wantCode int) map[string]any {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("%s %s: decoding body: %v", method, url, err)
	}
	if resp.StatusCode != wantCode {
		t.Fatalf("%s %s: status %d, want %d (body %v)", method, url, resp.StatusCode, wantCode, out)
	}
	return out
}

// TestHTTPEndToEnd drives the full daemon surface over a live
// listener: health, register, submit, poll to completion, stream
// stats, and point-query — with the queried value checked against a
// direct library run of the same computation.
func TestHTTPEndToEnd(t *testing.T) {
	s := New(2, 2)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	health := doJSON(t, "GET", ts.URL+"/v1/healthz", nil, http.StatusOK)
	if health["ok"] != true || health["max_jobs"] != float64(2) {
		t.Fatalf("healthz = %v", health)
	}

	reg := doJSON(t, "POST", ts.URL+"/v1/graphs",
		GraphSpec{Name: "web", Gen: "connected", N: 300, M: 900, Seed: 5}, http.StatusCreated)
	if reg["n"] != float64(300) {
		t.Fatalf("register = %v", reg)
	}
	info := doJSON(t, "GET", ts.URL+"/v1/graphs/web", nil, http.StatusOK)
	if info["n"] != float64(300) || info["directed"] != false {
		t.Fatalf("graph info = %v", info)
	}

	sub := doJSON(t, "POST", ts.URL+"/v1/jobs",
		JobSpec{Graph: "web", Algo: "pagerank", Engine: "pregel", Workers: 2, K: 20}, http.StatusAccepted)
	id := int64(sub["id"].(float64))
	jobURL := fmt.Sprintf("%s/v1/jobs/%d", ts.URL, id)

	var status map[string]any
	deadline := time.Now().Add(10 * time.Second)
	for {
		status = doJSON(t, "GET", jobURL, nil, http.StatusOK)
		if st := status["state"].(string); st == "succeeded" || st == "failed" || st == "cancelled" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck: %v", status)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if status["state"] != "succeeded" {
		t.Fatalf("job ended %v", status)
	}
	if _, ok := status["verdict"].(string); !ok {
		t.Fatalf("no verdict in %v", status)
	}
	summary := status["summary"].(map[string]any)
	if summary["supersteps"].(float64) < 1 {
		t.Fatalf("summary = %v", summary)
	}

	stats := doJSON(t, "GET", jobURL+"/stats?since=0", nil, http.StatusOK)
	records := stats["records"].([]any)
	if len(records) == 0 {
		t.Fatalf("stats stream empty: %v", stats)
	}
	next := int(stats["next"].(float64))
	if next != len(records) {
		t.Fatalf("next = %d with %d records", next, len(records))
	}
	tail := doJSON(t, "GET", fmt.Sprintf("%s/stats?since=%d", jobURL, next), nil, http.StatusOK)
	if n, _ := tail["records"].([]any); len(n) != 0 {
		t.Fatalf("stats past the end returned %d records", len(n))
	}

	// The daemon's point query must match a direct library run on the
	// same generator graph.
	g := graph.RandomConnected(300, 900, 5)
	res, err := vc.PreparePageRank(g, 0.85, 20, vc.Config{Workers: 2})()
	if err != nil {
		t.Fatal(err)
	}
	query := doJSON(t, "GET", jobURL+"/query?vertex=17", nil, http.StatusOK)
	if got := query["value"].(float64); got != res.Ranks[17] {
		t.Fatalf("query value %v != library run %v", got, res.Ranks[17])
	}
}

// TestHTTPErrors checks the error mapping: 404 for unknown names, 400
// for malformed input, 409 for querying an unfinished job.
func TestHTTPErrors(t *testing.T) {
	s := New(2, 1)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	doJSON(t, "GET", ts.URL+"/v1/graphs/none", nil, http.StatusNotFound)
	doJSON(t, "GET", ts.URL+"/v1/jobs/99", nil, http.StatusNotFound)
	doJSON(t, "GET", ts.URL+"/v1/jobs/xyz", nil, http.StatusBadRequest)
	doJSON(t, "POST", ts.URL+"/v1/jobs",
		JobSpec{Graph: "none", Algo: "pagerank"}, http.StatusNotFound)
	doJSON(t, "POST", ts.URL+"/v1/graphs",
		map[string]any{"name": "g", "gen": "path", "n": 8, "bogus": true}, http.StatusBadRequest)

	doJSON(t, "POST", ts.URL+"/v1/graphs",
		GraphSpec{Name: "g", Gen: "connected", N: 300, M: 900, Seed: 1}, http.StatusCreated)
	doJSON(t, "POST", ts.URL+"/v1/jobs",
		JobSpec{Graph: "g", Algo: "kcore", Engine: "async"}, http.StatusBadRequest)
	// An sssp source outside [0, n) is a bad request, not a job.
	doJSON(t, "POST", ts.URL+"/v1/jobs",
		JobSpec{Graph: "g", Algo: "sssp", Engine: "inc", Src: 5000}, http.StatusBadRequest)
	// So is a negative PageRank iteration count.
	doJSON(t, "POST", ts.URL+"/v1/jobs",
		JobSpec{Graph: "g", Algo: "pagerank", Engine: "inc", K: -5}, http.StatusBadRequest)
	// Specs that would exhaust or mislead the daemon are bad requests
	// too: a worker count past the cap, a damping factor outside
	// [0, 1], a negative tolerance, and an incremental PageRank whose
	// rank history would pass MaxIncHistoryBytes.
	for _, spec := range []JobSpec{
		{Graph: "g", Algo: "cc", Workers: -1},
		{Graph: "g", Algo: "cc", Workers: MaxJobWorkers + 1},
		{Graph: "g", Algo: "pagerank", Engine: "gas", Alpha: 5},
		{Graph: "g", Algo: "pagerank", Engine: "blockcentric", Alpha: -0.5},
		{Graph: "g", Algo: "pagerank", Engine: "async", Eps: -1},
		{Graph: "g", Algo: "pagerank", Engine: "inc", K: MaxIncHistoryBytes / (8 * 300)},
	} {
		doJSON(t, "POST", ts.URL+"/v1/jobs", spec, http.StatusBadRequest)
	}
	// "checkpoint" is the only wire name for the cadence: the retired
	// "checkpoint_every" alias is an unknown field.
	doJSON(t, "POST", ts.URL+"/v1/jobs",
		map[string]any{"graph": "g", "algo": "pagerank", "checkpoint_every": 2}, http.StatusBadRequest)

	grown := doJSON(t, "POST", ts.URL+"/v1/graphs/g/edges",
		map[string]any{"edges": [][]float64{{0, 7}, {1, 9, 0.5}}}, http.StatusOK)
	if grown["m"] != float64(902) {
		t.Fatalf("edge append = %v, want m=902", grown)
	}
	doJSON(t, "POST", ts.URL+"/v1/graphs/none/edges",
		map[string]any{"edges": [][]float64{{0, 1}}}, http.StatusNotFound)
	doJSON(t, "POST", ts.URL+"/v1/graphs/g/edges",
		map[string]any{"edges": [][]float64{{0, 900}}}, http.StatusBadRequest)

	// Submit a long job; querying before completion is a conflict, and
	// the cancel endpoint tears it down.
	sub := doJSON(t, "POST", ts.URL+"/v1/jobs",
		JobSpec{Graph: "g", Algo: "pagerank", Workers: 2, K: 1 << 20}, http.StatusAccepted)
	id := int64(sub["id"].(float64))
	jobURL := fmt.Sprintf("%s/v1/jobs/%d", ts.URL, id)
	doJSON(t, "GET", jobURL+"/query?vertex=0", nil, http.StatusConflict)
	doJSON(t, "POST", jobURL+"/cancel", nil, http.StatusOK)
	deadline := time.Now().Add(10 * time.Second)
	for {
		status := doJSON(t, "GET", jobURL, nil, http.StatusOK)
		if status["state"] == "cancelled" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cancel did not land: %v", status)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
