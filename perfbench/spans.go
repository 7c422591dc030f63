package main

import "time"

// span is one recorded call into a layer: name, start and end relative to
// the recorder's origin, and the span that was open when it started.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 = root
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

func (s span) dur() float64 { return s.End - s.Start }

// recorder keeps every span in memory until the run ends. Spans nest by a
// stack of open spans, so a recorder serves one goroutine.
type recorder struct {
	origin time.Time
	spans  []span
	open   []int // indices into spans
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// begin opens a span under the innermost open one and returns the function
// that closes it. A nil recorder records nothing.
func (r *recorder) begin(name string) func() {
	if r == nil {
		return func() {}
	}
	parent := 0
	if len(r.open) > 0 {
		parent = r.spans[r.open[len(r.open)-1]].ID
	}
	idx := len(r.spans)
	r.spans = append(r.spans, span{ID: idx + 1, Parent: parent, Name: name})
	r.open = append(r.open, idx)
	r.spans[idx].Start = time.Since(r.origin).Seconds()
	return func() {
		r.spans[idx].End = time.Since(r.origin).Seconds()
		r.open = r.open[:len(r.open)-1]
	}
}

// selfTimes returns, per span ID, the span's duration minus the time its
// direct children cover.
func selfTimes(spans []span) map[int]float64 {
	self := make(map[int]float64, len(spans))
	for _, s := range spans {
		self[s.ID] += s.dur()
		if s.Parent != 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}
