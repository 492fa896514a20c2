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

// span is one timed call into a layer, recorded by the benchmark around
// the public function it calls. Spans of one request share Req.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // id of the causing span, -1 for roots
	Req    int    `json:"req"`
	Pass   int    `json:"pass"`
}

// tracer keeps spans in memory; write dumps them when the run ends. A
// nil *tracer records nothing, which is how untraced passes run.
type tracer struct {
	origin time.Time
	mu     sync.Mutex // the service clients record concurrently
	spans  []span
	from   int // first span of the current pass
	pass   int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// start opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) start(name string, parent, req int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Start: now, Parent: parent, Req: req, Pass: t.pass})
	return id
}

// end closes span id, optionally renaming it once the outcome is known
// (a service request becomes a hit or a miss).
func (t *tracer) end(id int, rename string) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	if rename != "" {
		t.spans[id].Name = rename
	}
}

func (t *tracer) beginPass() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.pass++
	t.from = len(t.spans)
}

// endPass returns the spans recorded since beginPass.
func (t *tracer) endPass() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans[t.from:]...)
}

// write stores every span as one JSON line under .bench_build/spans.
func (t *tracer) write(workload string, seed uint64) error {
	dir := filepath.Join(".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-pid%d.jsonl", workload, seed, os.Getpid()))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("spans: %d written to %s\n", len(t.spans), path)
	return nil
}

// selfTimes sums each span name's self time over one pass: its duration
// minus the part its child spans cover.
func selfTimes(spans []span) map[string]time.Duration {
	pos := make(map[int]int, len(spans)) // span id -> position
	self := make([]int64, len(spans))
	for i, s := range spans {
		pos[s.ID] = i
		self[i] = s.End - s.Start
	}
	for _, s := range spans {
		if p, ok := pos[s.Parent]; ok {
			self[p] -= s.End - s.Start
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range spans {
		out[s.Name] += time.Duration(self[i])
	}
	return out
}
