package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "bench.job", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "service.submit", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "service.status", Start: 20, End: 50}, // overlaps 2
		{ID: 4, Parent: 1, Name: "service.status", Start: 60, End: 70},
		{ID: 5, Parent: 1, Name: "service.query", Start: 90, End: 120}, // sticks out
		{ID: 6, Parent: 3, Name: "graph.pin", Start: 25, End: 35},
		{ID: 7, Name: "bench.job", Start: 200, End: 210}, // no children
	}
	self := selfTimes(spans)
	// Children cover [10,50] + [60,70] + [90,100] = 60 of 100.
	want := map[int64]int64{1: 40, 2: 20, 3: 20, 4: 10, 5: 30, 6: 10, 7: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self = %d, want %d", id, self[id], w)
		}
	}
	layers := layerSelfTimes(spans)
	for layer, w := range map[string]time.Duration{"bench": 50, "service": 80, "graph": 10} {
		if layers[layer] != w {
			t.Errorf("layer %s self = %v, want %v", layer, layers[layer], w)
		}
	}
}

func TestTracerRecordsAndNilIsFree(t *testing.T) {
	var off *Tracer
	if id := off.Begin("x.y", 0, 1); id != 0 {
		t.Fatalf("nil tracer returned span %d", id)
	}
	off.End(0)
	if off.Spans() != nil {
		t.Fatal("nil tracer has spans")
	}
	tr := newTracer()
	root := tr.Begin("bench.job", 0, 7)
	child := tr.Begin("service.submit", root, 7)
	open := tr.Begin("service.status", root, 7)
	tr.End(child)
	tr.End(root)
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d closed spans, want 2 (open span %d excluded)", len(spans), open)
	}
	if spans[1].Parent != root || spans[1].Req != 7 || spans[1].End < spans[1].Start {
		t.Errorf("child span %+v", spans[1])
	}
}
