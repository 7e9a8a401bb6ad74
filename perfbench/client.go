package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"time"

	"vcgraph/internal/bsp"
	"vcgraph/internal/service"
)

// server is the program under test as vcd serves it: service.NewServer
// behind its HTTP handler, on a loopback listener in this process.
type server struct {
	srv *service.Server
	ts  *httptest.Server
	c   *client
}

// clientConns bounds the load generator's connections: the machine
// has two CPUs, and the benchmark runs no more client goroutines.
const clientConns = 2

func startServer(opts service.Options, tr *Tracer) *server {
	srv := service.NewServer(opts)
	ts := httptest.NewServer(srv.Handler())
	hc := &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     clientConns,
		MaxIdleConnsPerHost: clientConns,
		DisableCompression:  true,
	}}
	return &server{srv: srv, ts: ts, c: &client{base: ts.URL, hc: hc, tr: tr}}
}

func (s *server) close() {
	s.c.hc.CloseIdleConnections()
	s.ts.Close()
	s.srv.Close()
}

// client issues the daemon's JSON requests, one span per call.
type client struct {
	base string
	hc   *http.Client
	tr   *Tracer
}

func (c *client) do(method, path string, body []byte, want int, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("%s %s: decode: %w", method, path, err)
	}
	return nil
}

// register posts a pre-encoded GraphSpec body.
func (c *client) register(body []byte, req int64) error {
	sp := c.tr.Begin("service.register", 0, req)
	defer c.tr.End(sp)
	return c.do("POST", "/v1/graphs", body, http.StatusCreated, nil)
}

func (c *client) submit(spec service.JobSpec, parent, req int64) (int64, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return 0, err
	}
	sp := c.tr.Begin("service.submit", parent, req)
	defer c.tr.End(sp)
	var out struct {
		ID int64 `json:"id"`
	}
	if err := c.do("POST", "/v1/jobs", body, http.StatusAccepted, &out); err != nil {
		return 0, err
	}
	return out.ID, nil
}

// jobStatus is the part of GET /v1/jobs/{id} the benchmark reads.
type jobStatus struct {
	State   string      `json:"state"`
	Error   string      `json:"error"`
	Verdict string      `json:"verdict"`
	Epoch   int64       `json:"epoch"`
	Cold    bool        `json:"cold"`
	Summary bsp.Summary `json:"summary"`
	Plan    *struct {
		Decisions []json.RawMessage `json:"decisions"`
	} `json:"plan"`
}

func (s *jobStatus) terminal() bool {
	return s.State == "succeeded" || s.State == "failed" || s.State == "cancelled"
}

func (c *client) status(id, parent, req int64) (*jobStatus, error) {
	sp := c.tr.Begin("service.status", parent, req)
	defer c.tr.End(sp)
	var st jobStatus
	if err := c.do("GET", "/v1/jobs/"+strconv.FormatInt(id, 10), nil, http.StatusOK, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

func (c *client) query(id int64, v int, parent, req int64) (float64, error) {
	sp := c.tr.Begin("service.query", parent, req)
	defer c.tr.End(sp)
	var out struct {
		Value float64 `json:"value"`
	}
	path := "/v1/jobs/" + strconv.FormatInt(id, 10) + "/query?vertex=" + strconv.Itoa(v)
	if err := c.do("GET", path, nil, http.StatusOK, &out); err != nil {
		return 0, err
	}
	return out.Value, nil
}

func (c *client) mutate(graphName string, muts []service.MutationSpec, parent, req int64) (int64, error) {
	body, err := json.Marshal(map[string]any{"mutations": muts})
	if err != nil {
		return 0, err
	}
	sp := c.tr.Begin("service.mutate", parent, req)
	defer c.tr.End(sp)
	var out struct {
		Epoch int64 `json:"epoch"`
	}
	if err := c.do("POST", "/v1/graphs/"+graphName+"/mutate", body, http.StatusOK, &out); err != nil {
		return 0, err
	}
	return out.Epoch, nil
}

// pollDelay spaces the status polls of a closed-loop client: a short
// job is seen within a fraction of a millisecond, a long one within
// about 2% of its run time, and polling never eats a CPU.
func pollDelay(elapsed time.Duration) time.Duration {
	return min(max(elapsed/50, 200*time.Microsecond), 5*time.Millisecond)
}

// waitLimit bounds how long a client waits for one job, so that a hung
// job fails the run instead of stalling it.
const waitLimit = 60 * time.Second

// wait polls job id until it is terminal and returns the final status
// and the number of polls made.
func (c *client) wait(id int64, start time.Time, parent, req int64) (*jobStatus, int, error) {
	for polls := 1; ; polls++ {
		st, err := c.status(id, parent, req)
		if err != nil {
			return nil, polls, err
		}
		if st.terminal() {
			return st, polls, nil
		}
		if time.Since(start) > waitLimit {
			return nil, polls, fmt.Errorf("job %d not done after %v", id, waitLimit)
		}
		time.Sleep(pollDelay(time.Since(start)))
	}
}
