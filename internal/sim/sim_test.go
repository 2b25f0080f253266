package sim

import (
	"container/heap"
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// call is the fire of the closure-driven tests: the event is the callback.
func call(f func()) { f() }

// Run, Step and Pending have no caller outside the tests, so they live here,
// as thin forms over RunContext and pop: the clock, the count and the event
// limit are advanced in one place.
func (s *Sim[E]) Run(fire func(E)) Time {
	t, _ := s.RunContext(context.Background(), fire)
	return t
}

func (s *Sim[E]) Step(fire func(E)) bool {
	if !s.pending() {
		return false
	}
	fire(s.pop())
	return true
}

// Pending counts events, not heap entries: every event scheduled and not
// yet fired.
func (s *Sim[E]) Pending() int { return int(s.seq - s.count) }

func TestDurationConversions(t *testing.T) {
	if Second.Seconds() != 1.0 {
		t.Errorf("Second = %v seconds", Second.Seconds())
	}
	if (1500 * Millisecond).Seconds() != 1.5 {
		t.Errorf("1500ms = %v seconds", (1500 * Millisecond).Seconds())
	}
	if Time(2*Second).Seconds() != 2.0 {
		t.Errorf("Time conversion wrong")
	}
	if (250 * Millisecond).String() != "0.250s" {
		t.Errorf("String() = %q", (250 * Millisecond).String())
	}
}

func TestEventsRunInTimeOrder(t *testing.T) {
	s := New[func()]()
	var got []Time
	times := []Time{50, 10, 30, 20, 40}
	for _, at := range times {
		at := at
		s.At(at, func() { got = append(got, at) })
	}
	s.Run(call)
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Errorf("events fired out of order: %v", got)
	}
	if len(got) != len(times) {
		t.Errorf("fired %d events, want %d", len(got), len(times))
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	s := New[func()]()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		s.At(5, func() { got = append(got, i) })
	}
	s.Run(call)
	for i, v := range got {
		if v != i {
			t.Fatalf("simultaneous events not FIFO: position %d holds %d", i, v)
		}
	}
}

func TestScheduleInPastClamps(t *testing.T) {
	s := New[func()]()
	var when Time
	s.At(100, func() {
		s.At(50, func() { when = s.Now() }) // in the past
	})
	s.Run(call)
	if when != 100 {
		t.Errorf("past event ran at %d, want clamped to 100", when)
	}
}

func TestAfterNegativeClamps(t *testing.T) {
	s := New[func()]()
	ran := false
	s.After(-5, func() { ran = true })
	s.Run(call)
	if !ran || s.Now() != 0 {
		t.Errorf("negative delay: ran=%v now=%d", ran, s.Now())
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New[func()]()
	depth := 0
	var recurse func()
	recurse = func() {
		if depth < 10 {
			depth++
			s.After(7, recurse)
		}
	}
	s.After(0, recurse)
	end := s.Run(call)
	if depth != 10 {
		t.Errorf("depth = %d, want 10", depth)
	}
	if end != 70 {
		t.Errorf("end = %d, want 70", end)
	}
}

func TestStepAndPending(t *testing.T) {
	s := New[func()]()
	s.At(1, func() {})
	s.At(2, func() {})
	if s.Pending() != 2 {
		t.Errorf("pending = %d, want 2", s.Pending())
	}
	if !s.Step(call) {
		t.Error("Step returned false with events pending")
	}
	if s.Now() != 1 || s.Pending() != 1 {
		t.Errorf("after one step: now=%d pending=%d", s.Now(), s.Pending())
	}
	s.Run(call)
	if s.Step(call) {
		t.Error("Step returned true with no events")
	}
	if s.Processed() != 2 {
		t.Errorf("processed = %d, want 2", s.Processed())
	}
}

func TestEventLimitPanics(t *testing.T) {
	s := New[func()]()
	s.SetEventLimit(5)
	var loop func()
	loop = func() { s.After(1, loop) }
	s.After(1, loop)
	defer func() {
		if recover() == nil {
			t.Error("expected panic from event limit")
		}
	}()
	s.Run(call)
}

// TestRandomWorkloadOrdering: random schedules always execute in
// nondecreasing time order and run every event exactly once.
func TestRandomWorkloadOrdering(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%200) + 1
		rng := rand.New(rand.NewSource(seed))
		s := New[func()]()
		fired := 0
		last := Time(-1)
		ok := true
		for i := 0; i < n; i++ {
			at := Time(rng.Intn(1000))
			s.At(at, func() {
				fired++
				if s.Now() < last {
					ok = false
				}
				last = s.Now()
			})
		}
		s.Run(call)
		return ok && fired == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestProcAcquireSerializes(t *testing.T) {
	p := NewProc(0, true)
	s1, e1 := p.Acquire(10, 5, "a")
	if s1 != 10 || e1 != 15 {
		t.Errorf("first acquire [%d,%d], want [10,15]", s1, e1)
	}
	s2, e2 := p.Acquire(12, 5, "a") // requested while busy
	if s2 != 15 || e2 != 20 {
		t.Errorf("second acquire [%d,%d], want [15,20]", s2, e2)
	}
	s3, e3 := p.Acquire(100, 5, "b") // requested after idle gap
	if s3 != 100 || e3 != 105 {
		t.Errorf("third acquire [%d,%d], want [100,105]", s3, e3)
	}
	if p.FreeAt() != 105 {
		t.Errorf("FreeAt = %d, want 105", p.FreeAt())
	}
}

func TestProcZeroDuration(t *testing.T) {
	p := NewProc(0, true)
	s, e := p.Acquire(10, 0, "x")
	if s != e {
		t.Errorf("zero-duration acquire [%d,%d] must be instantaneous", s, e)
	}
	if len(p.Busy()) != 0 {
		t.Error("zero-duration acquire must not record intervals")
	}
}

func TestProcIntervalMerging(t *testing.T) {
	p := NewProc(0, true)
	p.Acquire(0, 5, "a")
	p.Acquire(5, 5, "a") // adjacent, same label: merged
	p.Acquire(10, 5, "b")
	busy := p.Busy()
	if len(busy) != 2 {
		t.Fatalf("got %d intervals, want 2 (merged): %+v", len(busy), busy)
	}
	if busy[0].Start != 0 || busy[0].End != 10 || busy[0].Label != "a" {
		t.Errorf("merged interval %+v", busy[0])
	}
	if p.BusyTime() != 15 {
		t.Errorf("BusyTime = %v, want 15", p.BusyTime())
	}
}

func TestProcNoRecording(t *testing.T) {
	p := NewProc(0, false)
	p.Acquire(0, 5, "a")
	if len(p.Busy()) != 0 {
		t.Error("recording disabled but intervals retained")
	}
}

// TestProcUtilizationProperty: total busy time equals the sum of requested
// durations regardless of request pattern.
func TestProcUtilizationProperty(t *testing.T) {
	f := func(durs []uint8) bool {
		p := NewProc(0, true)
		var want Duration
		at := Time(0)
		for i, d := range durs {
			dd := Duration(d%20) + 1
			want += dd
			// Vary labels so intervals don't merge timing.
			label := "x"
			if i%2 == 0 {
				label = "y"
			}
			p.Acquire(at, dd, label)
			at += Time(d % 7)
		}
		return p.BusyTime() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMachineProcs(t *testing.T) {
	m := NewMachine(false)
	p3 := m.Proc(3)
	p1 := m.Proc(1)
	if m.Proc(3) != p3 {
		t.Error("Proc must return the same processor per id")
	}
	if m.Proc(-1) != m.Host() {
		t.Error("Proc(-1) must be the host")
	}
	procs := m.Procs()
	if len(procs) != 2 || procs[0] != p1 || procs[1] != p3 {
		t.Errorf("Procs() not sorted by id: %v", procs)
	}
	if m.NumProcs() != 2 {
		t.Errorf("NumProcs = %d, want 2 (host excluded)", m.NumProcs())
	}
}

// refSim is the kernel as it was before the heap was inlined: container/heap
// over boxed events. It is kept as the reference the differential test
// compares the firing order against.
type refEvent struct {
	at  Time
	seq uint64
	id  int
}

type refHeap []refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

type refSim struct {
	now    Time
	seq    uint64
	events refHeap
}

func (s *refSim) Now() Time { return s.now }

func (s *refSim) At(t Time, id int) {
	if t < s.now {
		t = s.now
	}
	s.seq++
	heap.Push(&s.events, refEvent{at: t, seq: s.seq, id: id})
}

func (s *refSim) After(d Duration, id int) {
	if d < 0 {
		d = 0
	}
	s.At(s.now+Time(d), id)
}

func (s *refSim) Run(fire func(int)) Time {
	for len(s.events) > 0 {
		e := heap.Pop(&s.events).(refEvent)
		s.now = e.at
		fire(e.id)
	}
	return s.now
}

// scheduler is what the seeded program below needs of either kernel.
type scheduler interface {
	Now() Time
	At(Time, int)
	After(Duration, int)
	Run(func(int)) Time
}

// firing is one fired event: ids are handed out in scheduling order, so
// (at, id) is the (at, seq) the kernel ordered it by.
type firing struct {
	at Time
	id int
}

// runProgram drives s with a seeded random schedule of total events —
// absolute times, bursts at one instant, past times and negative delays
// that clamp to now, most of it scheduled from inside fire — and returns
// the firing sequence. The random choices are drawn in firing order, so two
// kernels see the same program exactly as long as they fire identically.
func runProgram(s scheduler, seed int64, total int) []firing {
	rng := rand.New(rand.NewSource(seed))
	next := 0
	schedule := func() {
		id := next
		next++
		switch rng.Intn(5) {
		case 0:
			s.At(s.Now(), id)
		case 1:
			s.At(s.Now()-Time(rng.Intn(50)), id)
		case 2:
			s.After(Duration(rng.Intn(20)-5), id)
		case 3:
			s.After(Duration(rng.Intn(300)), id)
		default:
			s.At(Time(rng.Intn(5000)), id)
		}
	}
	for i := 0; i < total/10; i++ {
		schedule()
	}
	trace := make([]firing, 0, total)
	s.Run(func(id int) {
		trace = append(trace, firing{s.Now(), id})
		if rng.Intn(100) == 0 { // a burst at one future instant
			at := s.Now() + Time(rng.Intn(100))
			for k := 0; k < 40 && next < total; k++ {
				s.At(at, next)
				next++
			}
		}
		for k := rng.Intn(4); k > 0 && next < total; k-- {
			schedule()
		}
	})
	return trace
}

// TestFiringOrderMatchesContainerHeap: the (at, seq) firing order is the
// kernel's contract; the inlined heap must reproduce, event for event, the
// order of the container/heap kernel it replaced.
func TestFiringOrderMatchesContainerHeap(t *testing.T) {
	const total = 12000
	for _, seed := range []int64{1, 1995, 2024} {
		got := runProgram(New[int](), seed, total)
		want := runProgram(&refSim{}, seed, total)
		if len(got) != total || len(want) != total {
			t.Fatalf("seed %d: fired %d events, reference %d, want %d", seed, len(got), len(want), total)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: firing %d is %+v, reference fired %+v", seed, i, got[i], want[i])
			}
			if i > 0 && (got[i].at < got[i-1].at || got[i].at == got[i-1].at && got[i].id < got[i-1].id) {
				t.Fatalf("seed %d: firing %d %+v is out of (at, seq) order after %+v", seed, i, got[i], got[i-1])
			}
		}
	}
}

// TestScheduleAndPopAllocateNothing pins the point of the typed heap: at
// steady capacity, scheduling events and firing them allocate nothing — no
// closure, no boxing, no run storage — and no vacated slot retains a
// pointer (the heap's entries hold none).
func TestScheduleAndPopAllocateNothing(t *testing.T) {
	type ev struct {
		p    *int
		kind uint8
	}
	s := New[ev]()
	x := new(int)
	for i := 0; i < 64; i++ {
		s.At(Time(i%7), ev{p: x})
	}
	fired := 0
	fire := func(e ev) { fired += int(e.kind) }
	allocs := testing.AllocsPerRun(1000, func() {
		s.After(5, ev{p: x, kind: 1}) // a run of two
		s.After(5, ev{p: x, kind: 1})
		fire(s.pop())
		fire(s.pop())
	})
	if allocs != 0 {
		t.Errorf("At + pop allocate %v times per two events, want 0", allocs)
	}
	s.Run(fire)
	if fired == 0 || s.Pending() != 0 {
		t.Fatalf("fired %d, pending %d", fired, s.Pending())
	}
	for i, sl := range s.slots[:cap(s.slots)] {
		if sl.e.p != nil {
			t.Fatalf("vacated slot %d still holds its event's pointer", i)
		}
	}
}

// TestRuns: events scheduled back to back for one time share one heap
// entry, and an event scheduled while a run fires comes after the run's
// remaining events — joining the run when it is the newest, else in a run
// after every other at its time.
func TestRuns(t *testing.T) {
	for _, c := range []struct {
		name  string
		times []Time // ids 0, 1, ... scheduled in this order
		runs  int
		want  []int // id 0's fire schedules one more id at Now()
	}{
		{"newest run grows while it fires", []Time{5, 5, 5}, 1, []int{0, 1, 2, 3}},
		{"later run at the same time", []Time{5, 5, 5, 7, 5}, 3, []int{0, 1, 2, 4, 5, 3}},
	} {
		s := New[int]()
		for id, at := range c.times {
			s.At(at, id)
		}
		if len(s.runs) != c.runs || s.Pending() != len(c.times) {
			t.Errorf("%s: %d events in %d heap entries, want %d in %d", c.name, s.Pending(), len(s.runs), len(c.times), c.runs)
		}
		var got []int
		s.Run(func(id int) {
			got = append(got, id)
			if id == 0 {
				s.At(s.Now(), len(c.times))
			}
		})
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("%s: fired %v, want %v", c.name, got, c.want)
		}
		if n := uint64(len(c.times) + 1); s.Processed() != n {
			t.Errorf("%s: processed %d, want %d events", c.name, s.Processed(), n)
		}
	}
}

// TestCancelInsideRun: the context is checked between the events of one
// run, and the events after the cancellation stay pending, in order.
func TestCancelInsideRun(t *testing.T) {
	s := New[int]()
	for id := 0; id < 4; id++ {
		s.At(5, id)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var got []int
	_, err := s.RunContext(ctx, func(id int) {
		got = append(got, id)
		if id == 1 {
			cancel()
		}
	})
	if err != context.Canceled || fmt.Sprint(got) != "[0 1]" || s.Pending() != 2 {
		t.Fatalf("cancelled after event 1: err %v, fired %v, %d pending; want %v, [0 1], 2", err, got, s.Pending(), context.Canceled)
	}
	s.Run(func(id int) { got = append(got, id) })
	if fmt.Sprint(got) != "[0 1 2 3]" {
		t.Errorf("resumed run fired %v, want [0 1 2 3]", got)
	}
}

// TestEventLimitInsideRun: the limit counts events, so it stops a run of
// ten after the fifth, as it would ten runs of one.
func TestEventLimitInsideRun(t *testing.T) {
	s := New[int]()
	s.SetEventLimit(5)
	for id := 0; id < 10; id++ {
		s.At(5, id)
	}
	fired := 0
	defer func() {
		if recover() == nil || fired != 5 || s.Processed() != 6 {
			t.Errorf("limit 5: fired %d, processed %d; want a panic after 5 fired, at the 6th", fired, s.Processed())
		}
	}()
	s.Run(func(int) { fired++ })
}

// TestReset: a reset Sim, even one cancelled with events pending, starts
// at time zero with no events, no count, no limit and no pointer held, and
// runs a program as a fresh one does.
func TestReset(t *testing.T) {
	type ev struct{ p *int }
	s := New[ev]()
	s.SetEventLimit(100)
	x := new(int)
	for i := 0; i < 50; i++ {
		s.At(Time(i%3), ev{p: x})
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.RunContext(ctx, func(ev) { cancel() })
	s.Reset()
	if s.Now() != 0 || s.Pending() != 0 || s.Processed() != 0 || s.limit != 0 || s.pending() {
		t.Fatalf("reset: now %d, %d pending, %d processed, limit %d", s.Now(), s.Pending(), s.Processed(), s.limit)
	}
	for i, sl := range s.slots[:cap(s.slots)] {
		if sl.e.p != nil {
			t.Fatalf("reset: slot %d still holds an event's pointer", i)
		}
	}

	reused := New[int]()
	runProgram(reused, 7, 3000)
	reused.Reset()
	got, want := runProgram(reused, 1995, 3000), runProgram(New[int](), 1995, 3000)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Error("a reset Sim fires a program differently from a fresh one")
	}
}
