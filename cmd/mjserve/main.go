// Command mjserve exposes a long-lived multijoin Engine over TCP: it
// generates (or loads) a Wisconsin chain database, opens an Engine over
// it, and serves the framed query protocol of internal/serve — SUBMIT a
// query shape, stream the result back as credit-windowed columnar batches
// (each DATA frame one of the runtime's own transport batches), CANCEL
// mid-stream. SIGINT/SIGTERM shuts the server down gracefully:
// in-flight cursors drain to their clients (bounded by -grace) before the
// engine closes; the process exits 0 only when the shared memory meter
// drained to zero.
//
//	mjserve -addr 127.0.0.1:7033 -relations 6 -card 5000 \
//	        -policy cost -budget 64MiB -conc 16
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"multijoin"
	"multijoin/internal/core"
	"multijoin/internal/serve"
)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mjserve: "+format+"\n", args...)
	os.Exit(2)
}

// parseBytes reads a byte size with an optional KiB/MiB/GiB (or K/M/G)
// suffix.
func parseBytes(s string) (int64, error) {
	t := strings.TrimSpace(s)
	mult := int64(1)
	for suffix, m := range map[string]int64{
		"KiB": 1 << 10, "MiB": 1 << 20, "GiB": 1 << 30,
		"K": 1 << 10, "M": 1 << 20, "G": 1 << 30,
	} {
		if strings.HasSuffix(t, suffix) {
			t, mult = strings.TrimSuffix(t, suffix), m
			break
		}
	}
	n, err := strconv.ParseInt(strings.TrimSpace(t), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad byte size %q", s)
	}
	return n * mult, nil
}

func main() {
	addr := flag.String("addr", "127.0.0.1:7033", "listen address (port 0 picks an ephemeral port)")
	relations := flag.Int("relations", 6, "number of Wisconsin chain relations")
	card := flag.Int("card", 5000, "tuples per relation")
	seed := flag.Int64("seed", 1995, "database generation seed")
	policy := flag.String("policy", "fifo", "admission policy: "+strings.Join(multijoin.AdmissionPolicies, ", "))
	budget := flag.String("budget", "64MiB", "shared live-tuple memory budget")
	conc := flag.Int("conc", 0, "max concurrent queries (0 means the engine default)")
	procs := flag.Int("procs", 0, "shared processor pool size (0 means GOMAXPROCS)")
	grace := flag.Duration("grace", 30*time.Second, "graceful-drain bound on shutdown")
	flag.Parse()

	budgetBytes, err := parseBytes(*budget)
	if err != nil {
		fail("%v", err)
	}
	db, err := multijoin.NewDatabase(*relations, *card, *seed)
	if err != nil {
		fail("database: %v", err)
	}
	eng, err := core.Open(db,
		core.WithAdmissionPolicy(*policy),
		core.WithEngineMemoryBudget(budgetBytes),
		core.WithMaxConcurrent(*conc),
		core.WithEngineProcs(*procs))
	if err != nil {
		fail("open engine: %v", err)
	}

	srv := serve.NewServer(eng, serve.Config{})
	bound, err := srv.Start(*addr)
	if err != nil {
		fail("%v", err)
	}
	// The parseable startup line: load generators and the smoke test read
	// the bound address from it (ephemeral ports).
	fmt.Printf("mjserve: listening on %s\n", bound)
	fmt.Printf("mjserve: %d relations x %d tuples, policy=%s budget=%s\n",
		*relations, *card, *policy, *budget)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	s := <-sig
	fmt.Printf("mjserve: %s, draining (grace %s)\n", s, *grace)

	ctx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "mjserve: shutdown: %v\n", err)
		os.Exit(1)
	}
	if live := eng.MemoryLive(); live != 0 {
		fmt.Fprintf(os.Stderr, "mjserve: %d bytes still live after drain\n", live)
		os.Exit(1)
	}
	fmt.Println("mjserve: drained clean (meter live = 0)")
}
