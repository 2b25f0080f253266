package main

import (
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

// The reference clock.
//
// On a shared host the same code takes a different time from one minute to
// the next: neighbours take memory bandwidth away for tens of seconds at a
// time, and every workload here (25-40 MB allocated per operation) is short
// of exactly that. On the reference container a run's timings moved by up
// to 20% of their median between identical runs, and a fixed streaming
// kernel timed in the same run moved with them (r = 0.9 over twelve runs
// of every workload; an arithmetic-only loop stayed within 2%). So a
// window is run in segments of refPeriod, the kernel is timed between two
// segments, when every client has stopped, and the end-to-end times are
// read on the kernel's clock: a duration is multiplied by refNominal over
// the run's median kernel time. A run on a slowed host then reports what
// the same run would have taken on an undisturbed one, to within the
// 5-10% the kernel does not explain. The wall-clock readings are printed
// beside the normalized ones.

// refNominal is the reference kernel's time on the undisturbed reference
// container. It only fixes the unit: normalized times read as
// milliseconds of that host.
const refNominal = 20 * time.Millisecond

// refPeriod is the length of one segment of a window: the time between two
// readings of the reference kernel. One reading differs from the next by
// about a tenth, so the median of a window's readings is only as good as
// their number: with a reading every 2 s the normalized timings of ten
// identical runs spread by 4-13% of their median, with one every second by
// 3-9%. Several readings per stop do not help: only the first one after
// the workload moves with it (a second and third straight after run a
// third faster and made the spread worse than the wall clock's).
const refPeriod = time.Second

// refWords is the reference kernel's working set in 8-byte words: 32 MiB,
// far larger than any cache level.
const (
	refWords  = 4 << 20
	refBufMiB = refWords * 8 / (1 << 20)
)

// refKernel is a fixed amount of streaming memory work: two
// read-modify-write passes and one read pass over buf.
func refKernel(buf []uint64) uint64 {
	var sum uint64
	for pass := 0; pass < 2; pass++ {
		for i := range buf {
			buf[i] = buf[i]*3 + uint64(i)
		}
	}
	for _, v := range buf {
		sum += v
	}
	return sum
}

// refClock times refKernel while no operation runs, always straight after
// operations have run, so that every reading starts from the same state
// of the caches. A reading may overlap the tail of a collection the last
// operations started; the run's figure is the median of its readings,
// which a minority of such readings does not move.
type refClock struct {
	mem  []byte   // mapped outside the Go heap: 32 MiB of live heap would double the collector's goal
	buf  []uint64 // mem as words
	sink uint64
	ns   []float64 // one entry per reading
}

func newRefClock() (*refClock, error) {
	mem, err := syscall.Mmap(-1, 0, refWords*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("map reference buffer: %w", err)
	}
	c := &refClock{mem: mem, buf: unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), refWords)}
	c.sink += refKernel(c.buf) // fault the pages in before the first reading
	return c, nil
}

func (c *refClock) close() {
	_ = syscall.Munmap(c.mem) // the mapping is this value's own; nothing to do about a failure
	c.mem, c.buf = nil, nil
}

// read times the kernel once.
func (c *refClock) read() {
	t0 := time.Now()
	c.sink += refKernel(c.buf)
	c.ns = append(c.ns, float64(time.Since(t0)))
}

// factor converts a duration measured while the given readings were taken
// to the reference clock.
func factor(readings []float64) float64 {
	if m := median(readings); m > 0 {
		return float64(refNominal) / m
	}
	return 1
}
