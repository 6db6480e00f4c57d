package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one request share Req;
// Parent is the index of the enclosing span (-1 for a root).
type span struct {
	Name   string        `json:"name"`
	Req    uint64        `json:"req"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer records spans in memory. A nil *tracer records nothing, so
// untraced runs pay one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	open  map[uint64]int // innermost open span per request
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), open: map[uint64]int{}}
}

// begin opens a span for request req. Its parent is the innermost
// span of the same request still open, whichever goroutine opened it:
// the layers of one request run one after another, so this links a
// shard handler to the router call it serves.
func (t *tracer) begin(name string, req uint64) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	parent, ok := t.open[req]
	if !ok {
		parent = -1
	}
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, Start: now, End: -1})
	id := len(t.spans) - 1
	t.open[req] = id
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.End = now
	if t.open[s.Req] == id {
		if s.Parent >= 0 {
			t.open[s.Req] = s.Parent
		} else {
			delete(t.open, s.Req)
		}
	}
}

// add records an already-finished span with explicit bounds (used when
// a span's start is a schedule instant rather than a call).
func (t *tracer) add(name string, req uint64, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, Start: start.Sub(t.t0), End: end.Sub(t.t0)})
	return len(t.spans) - 1
}

// layerTime is the aggregate of every closed span of one name.
type layerTime struct {
	Count int
	Total time.Duration // summed span durations
	Self  time.Duration // summed self times
}

// selfTimes aggregates closed spans by name. A span's self time is its
// duration minus the union of the intervals its direct children cover
// inside it, so overlapping children are not subtracted twice.
func selfTimes(spans []span) map[string]layerTime {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := map[string]layerTime{}
	for i, s := range spans {
		if s.End < s.Start {
			continue // never closed
		}
		var iv [][2]time.Duration
		for _, c := range children[i] {
			cs := spans[c]
			if cs.End < cs.Start {
				continue
			}
			lo, hi := max(cs.Start, s.Start), min(cs.End, s.End)
			if hi > lo {
				iv = append(iv, [2]time.Duration{lo, hi})
			}
		}
		lt := out[s.Name]
		lt.Count++
		lt.Total += s.End - s.Start
		lt.Self += s.End - s.Start - covered(iv)
		out[s.Name] = lt
	}
	return out
}

// covered is the length of the union of intervals.
func covered(iv [][2]time.Duration) time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	var curLo, curHi time.Duration
	started := false
	for _, x := range iv {
		switch {
		case !started:
			curLo, curHi, started = x[0], x[1], true
		case x[0] > curHi:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		case x[1] > curHi:
			curHi = x[1]
		}
	}
	if started {
		total += curHi - curLo
	}
	return total
}

// snapshot copies the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON lines under dir.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("closing trace: %w", err)
	}
	return path, nil
}
