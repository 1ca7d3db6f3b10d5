package main

import (
	"testing"
	"time"
)

// Self time subtracts the union of the children's intervals, clipped to
// the parent, and ignores grandchildren.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 30},
		{ID: 2, Parent: 0, Start: 20, End: 50},  // overlaps span 1
		{ID: 3, Parent: 0, Start: 90, End: 120}, // runs past its parent
		{ID: 4, Parent: 1, Start: 12, End: 18},  // grandchild of span 0
	}
	want := []time.Duration{50, 14, 30, 30, 6}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d self time %d, want %d", i, got[i], want[i])
		}
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin(0, -1, "op")
	tr.end(id)
	if id != -1 {
		t.Errorf("nil tracer returned span id %d", id)
	}
}

func TestTracerNestsSpans(t *testing.T) {
	tr := newTracer(3, time.Now())
	root := tr.begin(7, -1, "op")
	child := tr.begin(7, root, "call")
	tr.end(child)
	tr.end(root)
	ix := indexSpans(tr)
	if len(ix.spans) != 2 || ix.spans[1].Parent != root || ix.spans[1].Session != 3 || ix.spans[1].Op != 7 {
		t.Fatalf("spans %+v", ix.spans)
	}
	if d := ix.durs("call"); len(d) != 1 || d[0] > ix.spans[0].dur() {
		t.Errorf("call durations %v, op %v", d, ix.spans[0].dur())
	}
}
