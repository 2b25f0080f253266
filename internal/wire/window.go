package wire

import (
	"context"
	"sync"
)

// Window is the sending side of one stream's credit window: a count of
// DATA frames the receiver has agreed to buffer, and a wake-up. The
// stream's one sending goroutine Takes a credit per frame; the
// connection's reader Grants what CREDIT frames carry. Grant only adds
// and signals, so whatever a peer grants, the goroutine reading its
// connection never waits on a stream.
type Window struct {
	mu    sync.Mutex
	avail int64
	wake  chan struct{} // cap 1: a grant is pending
}

// NewWindow returns a window holding n credits.
func NewWindow(n int) *Window {
	return &Window{avail: int64(n), wake: make(chan struct{}, 1)}
}

// Grant adds n credits and wakes a blocked Take.
func (w *Window) Grant(n uint32) {
	w.mu.Lock()
	w.avail += int64(n)
	w.mu.Unlock()
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// Take consumes one credit, blocking until one is available or ctx ends.
func (w *Window) Take(ctx context.Context) error {
	for {
		w.mu.Lock()
		if w.avail > 0 {
			w.avail--
			w.mu.Unlock()
			return nil
		}
		w.mu.Unlock()
		select {
		case <-w.wake:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}
