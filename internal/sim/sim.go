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
// inline in a binary heap ordered by (at, seq), and handed back to the
// driver's one fire function when its time comes. The kernel never sees a
// closure and never boxes an event into an interface, so scheduling and
// firing allocate nothing — a simulated run schedules tens of thousands of
// events, and a closure plus two interface round trips per event was most
// of what a run allocated.
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

// event is one pending event of the driver's type E.
type event[E any] struct {
	at  Time
	seq uint64 // tie-break: FIFO among simultaneous events
	e   E
}

// before reports whether a fires ahead of b: (at, seq) order.
func (a *event[E]) before(b *event[E]) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// Sim is a discrete-event simulator over events of type E. The zero value
// is ready to use.
type Sim[E any] struct {
	now    Time
	seq    uint64
	events []event[E] // binary min-heap by (at, seq)
	count  uint64     // total events processed, for stats and runaway detection
	limit  uint64     // optional safety limit on processed events (0 = none)
}

// New returns a fresh simulator at time zero.
func New[E any]() *Sim[E] { return &Sim[E]{} }

// Now returns the current virtual time.
func (s *Sim[E]) Now() Time { return s.now }

// Processed returns the number of events executed so far.
func (s *Sim[E]) Processed() uint64 { return s.count }

// SetEventLimit installs a safety limit on the number of processed events;
// RunContext panics if it is exceeded. Zero disables the limit.
func (s *Sim[E]) SetEventLimit(n uint64) { s.limit = n }

// At schedules e to fire at absolute virtual time t. Scheduling in the past
// is clamped to the current time (the event fires "now", after already
// scheduled simultaneous events).
func (s *Sim[E]) At(t Time, e E) {
	if t < s.now {
		t = s.now
	}
	s.seq++
	ev := event[E]{at: t, seq: s.seq, e: e}
	h := append(s.events, ev)
	i := len(h) - 1
	for i > 0 { // sift up
		parent := (i - 1) / 2
		if !ev.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
	s.events = h
}

// After schedules e to fire d after the current virtual time.
func (s *Sim[E]) After(d Duration, e E) {
	if d < 0 {
		d = 0
	}
	s.At(s.now+Time(d), e)
}

// pop removes the next event in (at, seq) order from the non-empty heap,
// advances the clock to it and counts it against the event limit. The
// vacated heap slot is zeroed so the heap's spare capacity retains nothing
// an event pointed to.
func (s *Sim[E]) pop() E {
	h := s.events
	n := len(h) - 1
	top, last := h[0], h[n]
	h[n] = event[E]{}
	h = h[:n]
	s.events = h
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
	s.count++
	if s.limit > 0 && s.count > s.limit {
		panic(fmt.Sprintf("sim: event limit %d exceeded at t=%v", s.limit, s.now))
	}
	return top.e
}

// RunContext hands events to fire in order until no events remain or ctx is
// cancelled. The context is checked between events — a single fire is never
// interrupted — so cancellation leaves the simulation in a consistent (if
// incomplete) state. It returns the final virtual time and, on
// cancellation, the context's error.
func (s *Sim[E]) RunContext(ctx context.Context, fire func(E)) (Time, error) {
	done := ctx.Done()
	for len(s.events) > 0 {
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
