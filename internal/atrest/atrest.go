// Package atrest checks the at-rest invariant the tests hold every layer
// to: once what a test started has ended, the process holds no more
// goroutines and open file descriptors than it did before, plus what a
// still-open engine keeps on purpose — the goroutines its ProcPool's idle
// shells hold parked (parallel.ProcPool.Parked). A goroutine that has
// finished its work, or a socket just closed, may take a moment to go, so
// each check polls until its count is down to the bound or the deadline
// passes.
//
// It is a leaf package so that the tests of any package can import it;
// testutil cannot hold it, since it imports core.
package atrest

import (
	"fmt"
	"os"
	"runtime"
	"time"
)

// Goroutines waits until the process runs at most want goroutines, and
// reports how many it still runs once deadline has passed.
func Goroutines(want int, deadline time.Duration) error {
	return settle("goroutines", runtime.NumGoroutine, want, deadline)
}

// FDs waits until the process holds at most want open file descriptors, and
// reports how many it still holds once deadline has passed. It checks
// nothing where OpenFDs cannot count them.
func FDs(want int, deadline time.Duration) error {
	if OpenFDs() < 0 {
		return nil
	}
	return settle("open file descriptors", OpenFDs, want, deadline)
}

// OpenFDs returns the number of open file descriptors of this process, or
// -1 on platforms without /proc.
func OpenFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

func settle(what string, count func() int, want int, deadline time.Duration) error {
	limit := time.Now().Add(deadline)
	n := count()
	for n > want && time.Now().Before(limit) {
		time.Sleep(time.Millisecond)
		n = count()
	}
	if n > want {
		return fmt.Errorf("%d %s, want at most %d", n, what, want)
	}
	return nil
}
