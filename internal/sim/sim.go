// Package sim is a deterministic discrete-event simulation kernel used to
// model the PRISMA/DB shared-nothing multiprocessor of the paper.
//
// The paper's performance effects — startup overhead proportional to the
// number of operation processes, coordination overhead proportional to the
// number of tuple streams, discretization error in processor allocation, and
// delay over pipelines — are structural cost effects. Running the plans on a
// virtual clock reproduces those structures exactly and deterministically,
// independent of the host machine, which a wall-clock goroutine
// implementation could not do (starting a goroutine costs microseconds and a
// laptop does not have 80 CPUs). Real relational data still flows through
// the simulated operators, so the computed join results remain verifiable.
//
// Time is measured in integer virtual microseconds. Events fire in (time,
// scheduling sequence) order — simultaneous events FIFO — and that order is
// the kernel's contract: it makes every run reproducible bit-for-bit from
// its inputs, whatever the host.
//
// How an event is stored is not part of the contract. Sim is generic over
// the driver's event type E: an event is a value the driver defines, kept
// inline in the simulator's slots, and handed back to the driver's one fire
// function when its time comes. The kernel never sees a closure and never
// boxes an event into an interface, so scheduling and firing allocate
// nothing — a simulated run schedules tens of thousands of events, and a
// closure plus two interface round trips per event was most of what a run
// allocated.
//
// Most events come in runs: a process that flushes its buffers or ends its
// streams schedules one message per destination at once, all for one time.
// So the binary heap ordered by (at, seq) holds one entry per run — events
// scheduled back to back for the same time, linked in scheduling order — and
// a run fires whole before the next entry is taken: no other event has a seq
// inside it, so that is (at, seq) order exactly. A Sim outlives its run:
// Reset keeps the heap and the slots for the next.
package sim

import (
	"context"
	"fmt"
)

// Time is a point in virtual time, in microseconds since query start.
type Time int64

// Duration is a span of virtual time in microseconds.
type Duration int64

// Common durations, for readable cost-model constants.
const (
	Microsecond Duration = 1
	Millisecond Duration = 1000
	Second      Duration = 1000 * 1000
)

// Seconds converts a virtual duration to floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Seconds converts a virtual time to floating-point seconds since start.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats a duration as seconds with millisecond precision.
func (d Duration) String() string { return fmt.Sprintf("%.3fs", d.Seconds()) }

// slot holds one pending event of the driver's type E. next links it to
// the following event of its run, or a free slot to the next free one; 0
// ends the list (slot 0 is never used, so the zero Sim is ready to use).
type slot[E any] struct {
	e    E
	next int32
}

// run is one heap entry: events scheduled back to back (consecutive seq)
// for the same time, from slot head on.
type run struct {
	at   Time
	seq  uint64 // the first event's; tie-break: FIFO among simultaneous runs
	head int32
}

// before reports whether a fires ahead of b: (at, seq) order.
func (a *run) before(b *run) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// Sim is a discrete-event simulator over events of type E. The zero value
// is ready to use.
type Sim[E any] struct {
	now    Time
	seq    uint64
	runs   []run     // binary min-heap by (at, seq)
	slots  []slot[E] // the runs' events and the free list
	free   int32     // first free slot
	tail   int32     // last slot of the newest run while it can grow, else 0
	tailAt Time      // the newest run's time
	cur    int32     // next slot of the firing run, 0 between runs
	count  uint64    // total events processed, for stats and runaway detection
	limit  uint64    // optional safety limit on processed events (0 = none)
}

// New returns a fresh simulator at time zero.
func New[E any]() *Sim[E] { return &Sim[E]{} }

// Reset returns s to time zero with no events, no count and no limit. It
// keeps the heap's and the slots' storage, so a run that starts from s
// regrows neither; no slot keeps an event's pointer.
func (s *Sim[E]) Reset() {
	clear(s.slots)
	*s = Sim[E]{runs: s.runs[:0], slots: s.slots[:0]}
}

// Now returns the current virtual time.
func (s *Sim[E]) Now() Time { return s.now }

// Processed returns the number of events executed so far.
func (s *Sim[E]) Processed() uint64 { return s.count }

// SetEventLimit installs a safety limit on the number of processed events;
// RunContext panics if it is exceeded. Zero disables the limit.
func (s *Sim[E]) SetEventLimit(n uint64) { s.limit = n }

// At schedules e to fire at absolute virtual time t. Scheduling in the past
// is clamped to the current time (the event fires "now", after already
// scheduled simultaneous events). An event for the newest run's time joins
// that run, even while it fires: it takes the next seq, so it is the run's
// next event in (at, seq) order too.
func (s *Sim[E]) At(t Time, e E) {
	if t < s.now {
		t = s.now
	}
	s.seq++
	i := s.free
	if i != 0 {
		s.free = s.slots[i].next
		s.slots[i] = slot[E]{e: e}
	} else {
		if len(s.slots) == 0 {
			s.slots = append(s.slots, slot[E]{})
		}
		i = int32(len(s.slots))
		s.slots = append(s.slots, slot[E]{e: e})
	}
	if s.tail != 0 && t == s.tailAt {
		s.slots[s.tail].next = i
		s.tail = i
		return
	}
	s.tail, s.tailAt = i, t
	r := run{at: t, seq: s.seq, head: i}
	h := append(s.runs, r)
	j := len(h) - 1
	for j > 0 { // sift up
		parent := (j - 1) / 2
		if !r.before(&h[parent]) {
			break
		}
		h[j] = h[parent]
		j = parent
	}
	h[j] = r
	s.runs = h
}

// After schedules e to fire d after the current virtual time.
func (s *Sim[E]) After(d Duration, e E) {
	if d < 0 {
		d = 0
	}
	s.At(s.now+Time(d), e)
}

// pending reports whether an event is left to fire.
func (s *Sim[E]) pending() bool { return s.cur != 0 || len(s.runs) > 0 }

// pop removes the next event in (at, seq) order, advances the clock to it
// and counts it against the event limit: the firing run's next event, or
// the first of the run it takes off the heap. The vacated slot is zeroed
// and freed, so the free slots retain nothing an event pointed to.
func (s *Sim[E]) pop() E {
	if s.cur == 0 {
		s.cur = s.popRun()
	}
	i := s.cur
	sl := &s.slots[i]
	e := sl.e
	s.cur = sl.next
	if s.tail == i {
		s.tail = 0 // the newest run is over: an event for its time starts another
	}
	*sl = slot[E]{next: s.free}
	s.free = i
	s.count++
	if s.limit > 0 && s.count > s.limit {
		panic(fmt.Sprintf("sim: event limit %d exceeded at t=%v", s.limit, s.now))
	}
	return e
}

// popRun removes the first run from the non-empty heap, advances the clock
// to it and returns its first slot.
func (s *Sim[E]) popRun() int32 {
	h := s.runs
	n := len(h) - 1
	top, last := h[0], h[n]
	h = h[:n]
	s.runs = h
	i := 0
	for { // sift last down from the root
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].before(&h[c]) {
			c++
		}
		if !h[c].before(&last) {
			break
		}
		h[i] = h[c]
		i = c
	}
	if n > 0 {
		h[i] = last
	}
	s.now = top.at
	return top.head
}

// RunContext hands events to fire in order until no events remain or ctx is
// cancelled. The context is checked between events — a single fire is never
// interrupted — so cancellation leaves the simulation in a consistent (if
// incomplete) state. It returns the final virtual time and, on
// cancellation, the context's error.
func (s *Sim[E]) RunContext(ctx context.Context, fire func(E)) (Time, error) {
	done := ctx.Done()
	for s.pending() {
		if done != nil {
			select {
			case <-done:
				return s.now, ctx.Err()
			default:
			}
		}
		fire(s.pop())
	}
	return s.now, nil
}
