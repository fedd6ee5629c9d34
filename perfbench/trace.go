package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the call. Seq ties together the spans of one batch (0 when
// the call belongs to no batch); Parent indexes the span that caused
// it (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Seq    int64  `json:"seq"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is a
// valid, disabled tracer: every method is a no-op, so untraced runs pay
// one nil check per layer call.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

// begin opens a span and returns its id for end and for children.
func (t *tracer) begin(name string, seq int64, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Seq: seq, Start: now, Parent: parent})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
}

// layerTime is the per-name aggregate of a trace.
type layerTime struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration
}

// selfTimes aggregates the spans by name. A span's self time is its
// duration minus the part of its interval that its children cover.
func selfTimes(spans []span) []layerTime {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	agg := make(map[string]*layerTime)
	for i, s := range spans {
		if s.End < s.Start {
			continue // never closed
		}
		lt := agg[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			agg[s.Name] = lt
		}
		d := time.Duration(s.End - s.Start)
		lt.Count++
		lt.Total += d
		lt.Self += d - covered(s, spans, children[i])
	}
	out := make([]layerTime, 0, len(agg))
	for _, lt := range agg {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered returns how much of parent's interval the union of its
// children's intervals covers.
func covered(parent span, spans []span, kids []int) time.Duration {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].Start, parent.Start), min(spans[k].End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	for i, v := range ivs {
		if i == 0 || v.a > curB {
			total += curB - curA
			curA, curB = v.a, v.b
		} else if v.b > curB {
			curB = v.b
		}
	}
	return time.Duration(total + curB - curA)
}

// write stores the spans, one JSON object a line, under dir and prints
// the per-layer self-time table to w.
func (t *tracer) write(dir, name string, w io.Writer) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	fmt.Fprintf(w, "%-40s %9s %14s %14s\n", "span", "count", "total", "self")
	for _, lt := range selfTimes(t.spans) {
		fmt.Fprintf(w, "%-40s %9d %14s %14s\n", lt.Name, lt.Count, lt.Total.Round(time.Microsecond), lt.Self.Round(time.Microsecond))
	}
	return path, nil
}

// reserve grows the span buffer so the next n spans append without
// allocating (the ladders count allocations around their rungs).
func (t *tracer) reserve(n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if cap(t.spans)-len(t.spans) < n {
		t.spans = append(make([]span, 0, len(t.spans)+n), t.spans...)
	}
}
