package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call across a layer boundary, recorded from the
// benchmark's own code around a call into one of the program's packages.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0: a root span
	Req    int64  `json:"req"`    // spans of one operation share it
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; a nil *tracer records nothing, so the
// untraced runs pay one nil check per boundary.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span // guarded_by(mu)
	next  int64  // guarded_by(mu)
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin returns a span's start offset; finish records it as a root span.
func (t *tracer) begin() (start int64) {
	if t == nil {
		return 0
	}
	return t.now()
}

func (t *tracer) finish(name string, req, start int64) {
	if t == nil {
		return
	}
	t.record(span{Req: req, Name: name, Start: start, End: t.now()})
}

// reserve allocates a span id before the span ends, so that the server
// side of a request can name the client span as its parent.
func (t *tracer) reserve() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// record keeps a finished span, giving it an id unless it has a reserved
// one.
func (t *tracer) record(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if s.ID == 0 {
		t.next++
		s.ID = t.next
	}
	t.spans = append(t.spans, s)
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, per span name, every span's self time: its duration
// minus the time its child spans cover.
func selfTimes(spans []span) map[string][]float64 {
	childCover := make(map[int64]time.Duration)
	for _, s := range spans {
		if s.Parent != 0 {
			childCover[s.Parent] += s.dur()
		}
	}
	out := make(map[string][]float64)
	for _, s := range spans {
		self := s.dur() - childCover[s.ID]
		out[s.Name] = append(out[s.Name], ms(self))
	}
	return out
}

// writeSpans writes the spans as JSON lines under dir.
func writeSpans(dir, name string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", fmt.Errorf("trace write: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("trace flush: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("trace close: %w", err)
	}
	return path, nil
}
