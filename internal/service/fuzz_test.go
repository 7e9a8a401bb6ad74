package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// FuzzJobSpec posts arbitrary bytes as a job body against a small
// registered graph. The daemon must answer 2xx or 4xx and survive: no
// panic, no fatal error. An admitted job runs briefly, is cancelled,
// and must then reach a terminal state, so no input can wedge the
// scheduler for the inputs after it.
func FuzzJobSpec(f *testing.F) {
	for _, body := range []string{
		// The bodies TestHTTPErrors posts.
		`{"graph":"none","algo":"pagerank"}`,
		`{"graph":"g","algo":"kcore","engine":"async"}`,
		`{"graph":"g","algo":"sssp","engine":"inc","src":5000}`,
		`{"graph":"g","algo":"pagerank","engine":"inc","k":-5}`,
		`{"graph":"g","algo":"pagerank","checkpoint_every":2}`,
		`{"graph":"g","algo":"cc","workers":-1}`,
		`{"graph":"g","algo":"cc","workers":1025}`,
		`{"graph":"g","algo":"pagerank","engine":"blockcentric","alpha":-0.5}`,
		`{"graph":"g","algo":"pagerank","engine":"inc","k":447392}`,
		`{"graph":"g","algo":"pagerank","workers":2,"k":1048576}`,
		// Specs that once exhausted or misled the daemon.
		`{"graph":"g","algo":"pagerank","engine":"inc","k":1099511627776}`,
		`{"graph":"g","algo":"cc","workers":8192}`,
		`{"graph":"g","algo":"pagerank","engine":"gas","alpha":5}`,
		`{"graph":"g","algo":"pagerank","engine":"async","eps":-1}`,
		// Well-formed jobs on every engine.
		`{"graph":"g","algo":"sssp","engine":"auto","src":3,"checkpoint":1,"full_snapshot_every":3,"faults":5}`,
		`{"graph":"g","algo":"cc","engine":"inc","incremental":true}`,
		`{"graph":"g","algo":"kcore","mode":"pull","timeout_ms":50}`,
	} {
		f.Add([]byte(body))
	}
	s := New(2, 1)
	defer s.Close()
	h := s.Handler()
	post := func(url string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, url, bytes.NewReader(body)))
		return rec
	}
	reg, _ := json.Marshal(GraphSpec{Name: "g", Gen: "connected", N: 60, M: 150, Seed: 1, Weights: true})
	if rec := post("/v1/graphs", reg); rec.Code != http.StatusCreated {
		f.Fatalf("register graph: status %d: %s", rec.Code, rec.Body)
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		rec := post("/v1/jobs", body)
		if rec.Code >= 500 || rec.Code < 200 || (rec.Code >= 300 && rec.Code < 400) {
			t.Fatalf("status %d for %q: %s", rec.Code, body, rec.Body)
		}
		if rec.Code != http.StatusAccepted {
			return
		}
		var sub struct {
			ID int64 `json:"id"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &sub); err != nil {
			t.Fatalf("accepted body %q: %v", rec.Body, err)
		}
		jr, err := s.JobRecord(sub.ID)
		if err != nil {
			t.Fatal(err)
		}
		select {
		case <-jr.job.Done():
		case <-time.After(20 * time.Millisecond):
		}
		if rec := post(fmt.Sprintf("/v1/jobs/%d/cancel", sub.ID), nil); rec.Code != http.StatusOK {
			t.Fatalf("cancel: status %d: %s", rec.Code, rec.Body)
		}
		select {
		case <-jr.job.Done():
		case <-time.After(10 * time.Second):
			t.Fatalf("job for %q did not stop after cancel", body)
		}
	})
}
