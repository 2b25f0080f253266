package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed layer boundary of one operation. Spans of one
// operation share Op; Parent is the ID of the span that caused this one
// (0 for the root). Peeled marks a span whose duration was measured by
// running the same operation again at a deeper entry point (or was
// reported by the server) and re-anchored inside its parent: the program
// itself carries no spans yet, so nesting is rebuilt from outside.
type span struct {
	Op     int64  `json:"op"`
	ID     int    `json:"span"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Client int    `json:"client"`
	Start  int64  `json:"start_ns"` // offset from the start of the window
	End    int64  `json:"end_ns"`
	Peeled bool   `json:"peeled,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// opTrace collects the spans of one operation. Span times are offsets
// from origin, the start of the traced window.
type opTrace struct {
	op     int64
	client int
	origin time.Time
	spans  []span
}

// addAt records a span measured in place: it began at start and took d.
func (t *opTrace) addAt(name string, parent int, start time.Time, d time.Duration) int {
	off := int64(start.Sub(t.origin))
	return t.add(name, parent, off, off+int64(d), false)
}

// add records a span and returns its ID for use as a parent.
func (t *opTrace) add(name string, parent int, start, end int64, peeled bool) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Op: t.op, ID: id, Parent: parent, Name: name, Client: t.client, Start: start, End: end, Peeled: peeled})
	return id
}

// addPeeled anchors a separately measured duration at offset off inside
// the parent span.
func (t *opTrace) addPeeled(name string, parent int, off, d time.Duration) int {
	p := t.spans[parent-1]
	return t.add(name, parent, p.Start+int64(off), p.Start+int64(off+d), true)
}

// selfTimes returns, for every span of one operation, its duration minus
// the part of its interval its child spans cover. Children may overlap
// each other and may stick out of the parent; only the covered part of the
// parent's own interval is subtracted, and it is subtracted once.
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered int64
		edge := s.Start // everything before edge is already accounted for
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return self
}

// traceLog keeps every span of a traced run in memory until the run ends.
type traceLog struct {
	mu    sync.Mutex
	spans []span
	// selfByName and durByName hold one entry per operation and span name:
	// the self time and the duration, in milliseconds, of that operation's
	// spans of that name added up (a cycle of four queries has four client
	// spans).
	selfByName map[string][]float64
	durByName  map[string][]float64
	// overrun counts, per span name, the operations in which a child of
	// that span ended after the span itself.
	overrun map[string]int
}

func newTraceLog() *traceLog {
	return &traceLog{selfByName: make(map[string][]float64), durByName: make(map[string][]float64), overrun: make(map[string]int)}
}

// commit folds one finished operation into the log.
func (l *traceLog) commit(t *opTrace) {
	self := selfTimes(t.spans)
	opSelf := make(map[string]float64)
	opDur := make(map[string]float64)
	overran := make(map[string]bool)
	for _, s := range t.spans {
		opSelf[s.Name] += ms(self[s.ID])
		opDur[s.Name] += ms(s.dur())
		// Span IDs are positions in t.spans, counted from 1.
		if s.Parent != 0 && s.End > t.spans[s.Parent-1].End {
			overran[t.spans[s.Parent-1].Name] = true
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, t.spans...)
	for name := range overran {
		l.overrun[name]++
	}
	for name := range opSelf {
		l.selfByName[name] = append(l.selfByName[name], opSelf[name])
		l.durByName[name] = append(l.durByName[name], opDur[name])
	}
}

// medianDur is the median duration in ms of the spans called name (0 when
// the workload records none).
func (l *traceLog) medianDur(name string) float64 { return median(l.durByName[name]) }

// medianSelf is the median self time in ms of the spans called name.
func (l *traceLog) medianSelf(name string) float64 { return median(l.selfByName[name]) }

// unresolved says whether the self time of the spans called name is below
// what the peel can tell: in most operations a child measured in another
// execution took longer than what is left of the span itself, so the self
// time is smaller than the difference between two executions of the same
// work.
func (l *traceLog) unresolved(name string) bool {
	return 2*l.overrun[name] > len(l.durByName[name])
}

// unresolvedCount is the number of span names whose self time is
// unresolved.
func (l *traceLog) unresolvedCount() int {
	n := 0
	for name := range l.durByName {
		if l.unresolved(name) {
			n++
		}
	}
	return n
}

// writeTo writes the spans as JSON lines.
func (l *traceLog) writeTo(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
