package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call. Spans of one compile or request share Trace;
// Parent is the ID of the enclosing span (0 for a root).
type span struct {
	Trace  string `json:"trace,omitempty"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	// StartNS and EndNS are offsets from the start of the run.
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Note    string `json:"note,omitempty"`
}

func (s span) seconds() float64 { return float64(s.EndNS-s.StartNS) / 1e9 }

// spanLog keeps spans on one clock in memory; span IDs are 1-based
// positions in spans. A nil log records nothing.
type spanLog struct {
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// do runs f inside a span named name and returns the span's ID.
func (l *spanLog) do(name string, parent int, f func() error) (int, error) {
	if l == nil {
		return 0, f()
	}
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, StartNS: time.Since(l.t0).Nanoseconds()})
	err := f()
	l.spans[id-1].EndNS = time.Since(l.t0).Nanoseconds()
	return id, err
}

// add records a span that has already ended and returns its ID.
func (l *spanLog) add(trace, name, note string, start, end time.Time, parent int) int {
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{Trace: trace, ID: id, Parent: parent, Name: name,
		StartNS: start.Sub(l.t0).Nanoseconds(), EndNS: end.Sub(l.t0).Nanoseconds(), Note: note})
	return id
}

// graft appends spans recorded by another log on the same clock,
// renumbered after l's own, with their roots under parent.
func (l *spanLog) graft(spans []span, parent int) {
	off := len(l.spans)
	for _, s := range spans {
		s.ID += off
		if s.Parent == 0 {
			s.Parent = parent
		} else {
			s.Parent += off
		}
		l.spans = append(l.spans, s)
	}
}

// adopt records a child process as a span and grafts the child's own
// spans, timed from the child's start, under it.
func (l *spanLog) adopt(trace, name string, cr childRun) {
	root := l.add(trace, name, "", cr.start, cr.start.Add(cr.wall), 0)
	off := cr.start.Sub(l.t0).Nanoseconds()
	for i := range cr.out.Spans {
		s := &cr.out.Spans[i]
		s.Trace = trace
		s.StartNS += off
		s.EndNS += off
	}
	l.graft(cr.out.Spans, root)
}

// write stores the spans as JSON.
func (l *spanLog) write(path, workload string, seed int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, l.spans})
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	return nil
}
