// Package atrest checks the at-rest invariant the tests hold every layer
// to: once what a test started has ended, the process holds no more
// goroutines and open file descriptors than it did before, plus what a
// still-open engine keeps on purpose — the goroutines its ProcPool's idle
// shells hold parked (parallel.ProcPool.Parked). A goroutine that has
// finished its work, or a socket just closed, may take a moment to go, so
// each check polls until its count is down to the bound or the deadline
// passes — all but Closing's, made right after a Close that waits for the
// goroutines it stops.
//
// It is a leaf package so that the tests of any package can import it;
// testutil cannot hold it, since it imports core.
package atrest

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// Goroutines waits until the process runs at most want goroutines, and
// reports how many it still runs once deadline has passed.
func Goroutines(want int, deadline time.Duration) error {
	return settle("goroutines", runtime.NumGoroutine, want, deadline)
}

// HostLoop is how a stack trace names the loop a kept shell's host runs
// (parallel's host.park): it parks in a channel receive between runs, and
// returns once woken to stop.
const HostLoop = "multijoin/internal/parallel.(*host).park("

// Stacks returns the stack of every goroutine of the process, one entry
// each, as runtime.Stack prints them.
func Stacks() []string {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	for n == len(buf) {
		buf = make([]byte, 2*len(buf))
		n = runtime.Stack(buf, true)
	}
	return strings.Split(string(buf[:n]), "\n\n")
}

// Closing is called just before a Close that waits for the parked hosts it
// stops (ProcPool.Close). It returns the check to make right after Close,
// without waiting: the process runs at most want goroutines besides hosts
// that have left the loop's receive. Such a host is on its way out — in its
// deferred WaitGroup.Done, in the loop's epilogue — and Go reaps it a moment
// later. A host still at the receive, parked or woken but not yet run, is
// not: its frame in HostLoop sits where those of the hosts parked now do.
func Closing() func(want int) error {
	receive := map[string]bool{}
	for _, g := range Stacks() {
		header, _, _ := strings.Cut(g, "\n")
		if pos := hostPos(g); pos != "" && strings.Contains(header, "[chan receive") {
			receive[pos] = true
		}
	}
	return func(want int) error {
		live, leaving := 0, 0
		for _, g := range Stacks() {
			live++
			if pos := hostPos(g); pos != "" && !receive[pos] {
				leaving++
			}
		}
		if live-leaving > want {
			return fmt.Errorf("%d goroutines, %d of them leaving the host loop; want at most %d besides those", live, leaving, want)
		}
		return nil
	}
}

// hostPos returns the position (file:line +pc offset) of a goroutine's
// frame in HostLoop, or "" if it has none.
func hostPos(g string) string {
	_, frame, ok := strings.Cut(g, HostLoop)
	if !ok {
		return ""
	}
	_, frame, _ = strings.Cut(frame, "\n\t")
	pos, _, _ := strings.Cut(frame, "\n")
	return pos
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
