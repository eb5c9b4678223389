package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed interval of the traced run. Names are
// "layer.operation" (layer = module name) so a later self-model of the
// service can reuse them. Parent 0 means a root span; spans of one
// workload op share Op.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Tracer records spans in memory; they are written out once, when the
// workload ends. A nil *Tracer records nothing, which is how the
// untraced run pays nothing for the instrumentation.
type Tracer struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []Span
	nested map[int]int64 // parent span -> end of its last Nest-ed child
}

func newTracer() *Tracer {
	return &Tracer{t0: time.Now(), nested: map[int]int64{}}
}

// Start opens a span and returns its ID (0 on a nil tracer).
func (t *Tracer) Start(name string, parent, op int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Op: op, Name: name, Start: now, End: now})
	t.mu.Unlock()
	return id
}

// End closes a span opened by Start.
func (t *Tracer) End(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// Nest records a child whose duration was measured by replaying the
// stage on captured inputs after the parent finished: the stage runs
// inside the parent in the program, but from outside it can only be
// timed on its own. The child is laid inside the parent's interval
// after the parent's previous nested child and clipped to the parent's
// end, so a parent's self time stays "its span minus what its children
// cover" and never goes negative.
func (t *Tracer) Nest(parent int, name string, d time.Duration) int {
	if t == nil || parent == 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent-1]
	start := p.Start
	if cur, ok := t.nested[parent]; ok {
		start = cur
	}
	end := start + int64(d)
	if end > p.End {
		end = p.End
	}
	if start > end {
		start = end
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Op: p.Op, Name: name, Start: start, End: end})
	t.nested[parent] = end
	return id
}

// Spans returns a copy of everything recorded so far.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its children cover (overlapping children are
// counted once).
func selfTimes(spans []Span) map[int]int64 {
	children := map[int][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// checkNesting reports the first child span that leaves its parent's
// interval; a trace that passes has children whose time never exceeds
// the parent's.
func checkNesting(spans []Span) error {
	byID := make(map[int]Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			return fmt.Errorf("span %d (%s) names missing parent %d", s.ID, s.Name, s.Parent)
		}
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d (%s) [%d,%d] leaves parent %d (%s) [%d,%d]",
				s.ID, s.Name, s.Start, s.End, p.ID, p.Name, p.Start, p.End)
		}
	}
	return nil
}

func writeTrace(path string, spans []Span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
