package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one timed call from the benchmark into a layer of the
// program. Name is "<layer>.<operation>"; Parent is the ID of the span
// that caused it (0 for a root); Req groups the spans of one request
// (a job, a mutation batch, a Table 1 row).
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer
// records nothing, so the untraced run pays one nil check per call.
type Tracer struct {
	origin time.Time

	mu    sync.Mutex
	spans []Span
}

func newTracer() *Tracer { return &Tracer{origin: time.Now()} }

// Begin opens a span and returns its ID (0 on a nil tracer).
func (t *Tracer) Begin(name string, parent, req int64) int64 {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Req: req, Name: name, Start: now, End: -1})
	return id
}

// End closes span id.
func (t *Tracer) End(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
}

// Spans returns a copy of the closed spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// WriteFile writes the spans as JSON lines.
func (t *Tracer) WriteFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its children cover (overlapping children count once;
// a child sticking out of its parent counts only inside it).
func selfTimes(spans []Span) map[int64]int64 {
	children := make(map[int64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered int64
		cur, curEnd := int64(-1), int64(-1)
		for _, k := range kids {
			lo, hi := max(k.Start, s.Start), min(k.End, s.End)
			if hi <= lo {
				continue
			}
			if lo > curEnd {
				if curEnd > cur {
					covered += curEnd - cur
				}
				cur, curEnd = lo, hi
			} else if hi > curEnd {
				curEnd = hi
			}
		}
		if curEnd > cur {
			covered += curEnd - cur
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// layerSelfTimes sums self time by layer: the span name up to its
// first dot ("service.submit" -> "service").
func layerSelfTimes(spans []Span) map[string]time.Duration {
	self := selfTimes(spans)
	out := make(map[string]time.Duration)
	for _, s := range spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		out[layer] += time.Duration(self[s.ID])
	}
	return out
}

// reportSelfTimes prints each layer's self time and share of the
// traced spans' total.
func reportSelfTimes(spans []Span) {
	bl := layerSelfTimes(spans)
	var total time.Duration
	names := make([]string, 0, len(bl))
	for name, d := range bl {
		names = append(names, name)
		total += d
	}
	sort.Strings(names)
	for _, name := range names {
		share := 0.0
		if total > 0 {
			share = float64(bl[name]) / float64(total)
		}
		fmt.Printf("trace self_time layer=%s ms=%.3f share=%.4f\n", name, bl[name].Seconds()*1000, share)
	}
}
