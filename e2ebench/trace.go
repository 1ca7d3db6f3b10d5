package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed interval of the traced run. Spans of one operation
// share Op; a root span has Parent -1. Times are nanoseconds since the
// tracer's origin.
type span struct {
	Session int    `json:"session"`
	Op      int    `json:"op"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Self    int64  `json:"self_ns"` // filled when the trace is written
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps the spans of one client session in memory; they are
// written out when the benchmark ends. A nil tracer records nothing, so
// untraced runs pay one nil check per call site. A tracer is owned by one
// goroutine.
type tracer struct {
	session int
	origin  time.Time
	spans   []span
}

func newTracer(session int, origin time.Time) *tracer {
	return &tracer{session: session, origin: origin}
}

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(op, parent int, name string) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Session: t.session, Op: op, ID: id, Parent: parent, Name: name,
		Start: int64(time.Since(t.origin))})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = int64(time.Since(t.origin))
}

// selfTimes returns, for every span of one session (indexed by ID), its
// duration minus the part of its interval that its children cover.
// Overlapping children are counted once, and a child's time outside its
// parent is ignored.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		var covered int64
		cur := s.Start // end of the covered prefix so far
		for _, k := range kids {
			lo, hi := max(k.Start, cur), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[i] = s.dur() - time.Duration(covered)
	}
	return out
}

// spanIndex groups the spans of finished tracers for per-layer metrics.
type spanIndex struct{ spans []span }

func indexSpans(tracers ...*tracer) spanIndex {
	var ix spanIndex
	for _, t := range tracers {
		if t != nil {
			ix.spans = append(ix.spans, t.spans...)
		}
	}
	return ix
}

// durs returns the durations of every span named name.
func (ix spanIndex) durs(name string) []time.Duration {
	var out []time.Duration
	for _, s := range ix.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// medianMs is the median duration of spans named name, in milliseconds.
func (ix spanIndex) medianMs(name string) float64 { return medianDur(ix.durs(name)) * 1e3 }

// writeTrace writes every span, with its self time, as one JSON object per
// line.
func writeTrace(path string, tracers ...*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, t := range tracers {
		if t == nil {
			continue
		}
		self := selfTimes(t.spans)
		for i, s := range t.spans {
			s.Self = int64(self[i])
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing trace %s: %w", path, err)
	}
	return f.Close()
}
