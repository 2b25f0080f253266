package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	// root [0,100] with children [10,40] and [30,60] (overlapping), [90,120]
	// (sticking out) and a grandchild [15,20] under the first child.
	spans := []span{
		{ID: 1, Parent: 0, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 60},
		{ID: 4, Parent: 1, Start: 90, End: 120},
		{ID: 5, Parent: 2, Start: 15, End: 20},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{
		1: 100 - 50 - 10, // [10,60] once, [90,100] clipped
		2: 30 - 5,
		3: 30,
		4: 30,
		5: 5,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
}

func TestSelfTimesChildCoversParent(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Start: 50, End: 60},
		{ID: 2, Parent: 1, Start: 40, End: 80},
		{ID: 3, Parent: 1, Start: 55, End: 58}, // inside what span 2 already covers
	}
	if self := selfTimes(spans); self[1] != 0 {
		t.Errorf("self time of a fully covered span = %d, want 0", self[1])
	}
}

func TestTraceLogAddsUpSpansOfOneName(t *testing.T) {
	origin := time.Now()
	tr := &opTrace{op: 1, origin: origin}
	root := tr.addAt("cycle", 0, origin, 10*time.Millisecond)
	tr.addPeeled("query", root, 0, 2*time.Millisecond)
	tr.addPeeled("query", root, 5*time.Millisecond, 3*time.Millisecond)
	l := newTraceLog()
	l.commit(tr)
	if got := l.medianDur("query"); got != 5 {
		t.Errorf("query spans of one op add up to %v ms, want 5", got)
	}
	if got := l.medianSelf("cycle"); got != 5 {
		t.Errorf("cycle self time %v ms, want 5", got)
	}
	if got := l.medianSelf("cycle") + l.medianSelf("query"); got != 10 {
		t.Errorf("self times sum to %v ms, want the root's 10", got)
	}
	if n := l.unresolvedCount(); n != 0 {
		t.Errorf("%d unresolved span names, want 0", n)
	}
}

func TestTraceLogMarksOverrunParentsUnresolved(t *testing.T) {
	origin := time.Now()
	l := newTraceLog()
	// In two of three operations the re-executed child took longer than its
	// parent: the parent's self time cannot be told.
	for op, child := range []time.Duration{12, 9, 11} {
		tr := &opTrace{op: int64(op), origin: origin}
		root := tr.addAt("apply", 0, origin, 20*time.Millisecond)
		wall := tr.addPeeled("server.wall", root, 0, 10*time.Millisecond)
		tr.addPeeled("twin", wall, 0, child*time.Millisecond)
		l.commit(tr)
	}
	if !l.unresolved("server.wall") || l.unresolved("apply") || l.unresolved("twin") {
		t.Errorf("unresolved: server.wall %v, apply %v, twin %v; want only server.wall",
			l.unresolved("server.wall"), l.unresolved("apply"), l.unresolved("twin"))
	}
	if n := l.unresolvedCount(); n != 1 {
		t.Errorf("%d unresolved span names, want 1", n)
	}
}
