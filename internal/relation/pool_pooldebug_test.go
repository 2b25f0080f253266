//go:build pooldebug

package relation

import (
	"strings"
	"testing"
)

// mustPanic runs fn and returns the recovered panic message, failing the
// test if fn returns normally.
func mustPanic(t *testing.T, fn func()) string {
	t.Helper()
	var msg string
	func() {
		defer func() {
			if r := recover(); r != nil {
				msg = r.(string)
			}
		}()
		fn()
		t.Fatal("expected a pooldebug panic, got none")
	}()
	return msg
}

// TestPoolDebugDoublePut asserts that returning the same batch twice panics
// with a double-Put diagnostic.
func TestPoolDebugDoublePut(t *testing.T) {
	p := NewBatchPool(8, 4)
	b := p.Get()
	b.AppendTuple(Tuple{Unique1: 1})
	p.Put(b)
	msg := mustPanic(t, func() { p.Put(b) })
	if !strings.Contains(msg, "double Put") {
		t.Errorf("double Put panic message %q does not mention double Put", msg)
	}
}

// TestPoolDebugUseAfterPut asserts that writing through a stale alias after
// Put is caught at the Get that would have handed out the corrupted batch.
func TestPoolDebugUseAfterPut(t *testing.T) {
	p := NewBatchPool(8, 1)
	b := p.Get()
	b.AppendTuple(Tuple{Unique1: 7})
	u1 := b.U1 // column alias surviving the Put
	p.Put(b)
	// A retained alias mutates the batch while it sits in the pool — the
	// spill bug this detector exists for (Put before the serialize finished).
	u1[0] = 42
	msg := mustPanic(t, func() { p.Get() })
	if !strings.Contains(msg, "use after Put") {
		t.Errorf("use-after-Put panic message %q does not mention use after Put", msg)
	}
}

// TestPoolDebugCleanCycleDoesNotPanic asserts the detector stays silent for
// the disciplined Get/append/Put cycle both runtimes perform.
func TestPoolDebugCleanCycleDoesNotPanic(t *testing.T) {
	p := NewBatchPool(4, 2)
	for i := 0; i < 16; i++ {
		b := p.Get()
		for j := 0; j < 4; j++ {
			b.Append(int64(i), int64(j), 0)
		}
		p.Put(b)
	}
}

// TestPoolDebugShared: the detector guards the shared pools too, and its
// mark travels with the batch. A second PutShared panics, and so does a
// batch put into a session pool and then into a shared one, or put again
// after a full free list let it go; a write through an alias is caught at
// the Get that hands the batch out again. Lent views and batches of a
// foreign capacity are still dropped before the detector sees them: never
// poisoned, never a double Put.
func TestPoolDebugShared(t *testing.T) {
	p := SharedPool(8)
	b := p.Get()
	PutShared(b)
	if msg := mustPanic(t, func() { PutShared(b) }); !strings.Contains(msg, "double Put") {
		t.Errorf("second PutShared: panic %q does not mention double Put", msg)
	}

	session := NewBatchPool(8, 1)
	b = p.Get()
	session.Put(b)
	if msg := mustPanic(t, func() { PutShared(b) }); !strings.Contains(msg, "double Put") {
		t.Errorf("Put into two pools: panic %q does not mention double Put", msg)
	}
	dropped := NewBatch(8)
	session.Put(dropped) // the free list is full: dropped, still marked
	if msg := mustPanic(t, func() { session.Put(dropped) }); !strings.Contains(msg, "double Put") {
		t.Errorf("Put again after a drop: panic %q does not mention double Put", msg)
	}

	// A sync.Pool may hand the batch to the collector, or under -race drop
	// a Put at random: retry until the Get sees the batch it was given.
	caught := false
	for range 100 {
		b := p.Get()
		b.Append(7, 7, 7)
		u1 := b.U1
		PutShared(b)
		u1[0] = 42
		func() {
			defer func() {
				if r := recover(); r != nil {
					caught = strings.Contains(r.(string), "use after Put")
				}
			}()
			p.Get()
		}()
		if caught {
			break
		}
	}
	if !caught {
		t.Error("a write after PutShared was never caught")
	}

	var frag Batch
	for i := int64(0); i < 8; i++ {
		frag.Append(i, i, uint64(i))
	}
	view := &frag.Lend(8)[0]
	foreign := NewBatch(8)
	foreign.Append(5, 5, 5)
	foreign.U1 = foreign.U1[:1:1] // capacity 1: no pool of its own here
	for range 2 {
		PutShared(view)
		p.Put(view)
		p.Put(foreign)
	}
	if frag.U1[3] != 3 || foreign.U1[0] != 5 {
		t.Error("a lent view or a foreign batch was poisoned")
	}
}
