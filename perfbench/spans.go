package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one call the benchmark made into the program, as the benchmark
// saw it from outside. Spans of one training share Train; setup spans carry
// Train −1. Parent is the ID of the enclosing span, 0 for a root.
type span struct {
	ID     int
	Parent int
	Train  int
	Name   string
	Start  time.Duration // since the tracer was created
	End    time.Duration
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open starts a span and returns its ID (0 on a nil tracer).
func (t *tracer) open(name string, train, parent int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Train: train, Name: name, Start: time.Since(t.t0)})
	return id
}

// close ends the span id.
func (t *tracer) close(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// selfTimes sums, per span name, each span's duration minus the part its
// direct children cover (children of one parent may overlap, as concurrent
// devices do, so the covered part is the union of their intervals).
func (t *tracer) selfTimes() map[string]time.Duration {
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range t.spans {
		out[s.Name] += s.End - s.Start - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) time.Duration {
	var total time.Duration
	end := parent.Start
	// IDs are handed out under the lock in start order, so children arrive
	// sorted by start and a single sweep merges them.
	for _, k := range kids {
		start, stop := max(k.Start, end), min(k.End, parent.End)
		if stop > start {
			total += stop - start
			end = stop
		}
	}
	return total
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(struct {
			ID     int    `json:"id"`
			Parent int    `json:"parent"`
			Train  int    `json:"train"`
			Name   string `json:"name"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
		}{s.ID, s.Parent, s.Train, s.Name, int64(s.Start), int64(s.End)}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
