package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary of one operation.
type span struct {
	Name string `json:"name"`
	Op   int    `json:"op"`
	// Parent is the index of the span that caused this one, -1 for the
	// root of an operation.
	Parent int `json:"parent"`
	// Start and End are nanoseconds since the run's epoch.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

// tracer keeps a traced run's spans in memory until write. All methods
// are safe for concurrent use, and a nil *tracer records nothing, so
// untraced operations pass nil.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a finished span and returns its index.
func (t *tracer) add(name string, op, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
	return len(t.spans) - 1
}

// finish sets the end of a span opened with add(name, op, parent, start, start).
func (t *tracer) finish(i int, end time.Time) {
	if t == nil || i < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].End = int64(end.Sub(t.epoch))
}

// selfTimes sums, per span name, each span's duration minus the part of
// it that its children's intervals cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[int][]int)
	for i, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range t.spans {
		var iv [][2]int64
		for _, k := range kids[i] {
			lo, hi := max(t.spans[k].Start, s.Start), min(t.spans[k].End, s.End)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, reach int64
		for _, x := range iv {
			lo := max(x[0], reach)
			if x[1] > lo {
				covered += x[1] - lo
			}
			reach = max(reach, x[1])
		}
		out[s.Name] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// write dumps the spans and the per-name self times as JSON.
func (t *tracer) write(path string) error {
	self := t.selfTimes()
	selfNS := make(map[string]int64, len(self))
	for k, v := range self {
		selfNS[k] = int64(v)
	}
	t.mu.Lock()
	data, err := json.Marshal(struct {
		Spans  []span           `json:"spans"`
		SelfNS map[string]int64 `json:"self_ns"`
	}{t.spans, selfNS})
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
