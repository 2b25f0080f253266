package diagram

import (
	"strings"
	"testing"
	"time"

	"multijoin/internal/sim"
)

func traceProcs() []*sim.Proc {
	p0 := sim.NewProc(0, true)
	p0.Acquire(0, 50, "4")
	p0.Acquire(50, 50, "3")
	p1 := sim.NewProc(1, true)
	p1.Acquire(25, 25, "4")
	return []*sim.Proc{p0, p1}
}

func TestRenderBasics(t *testing.T) {
	out := Render(traceProcs(), 100*time.Microsecond, 20)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 { // header + 2 processors
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	// Highest processor id first (paper's diagrams put proc N on top).
	if !strings.HasPrefix(lines[1], "  1 |") || !strings.HasPrefix(lines[2], "  0 |") {
		t.Errorf("processor order wrong:\n%s", out)
	}
	// Proc 0: first half '4', second half '3'.
	row0 := lines[2][strings.IndexByte(lines[2], '|')+1:]
	if row0[0] != '4' || row0[len(row0)-1] != '3' {
		t.Errorf("proc 0 row = %q", row0)
	}
	// Proc 1: idle at the start and end.
	row1 := lines[1][strings.IndexByte(lines[1], '|')+1:]
	if row1[0] != '.' || row1[len(row1)-1] != '.' {
		t.Errorf("proc 1 row = %q", row1)
	}
	if !strings.Contains(row1, "4") {
		t.Errorf("proc 1 row missing its work: %q", row1)
	}
}

func TestRenderEmptyTrace(t *testing.T) {
	if out := Render(nil, 0, 40); !strings.Contains(out, "empty") {
		t.Errorf("empty trace output %q", out)
	}
}

func TestRenderNarrowWidthClamped(t *testing.T) {
	out := Render(traceProcs(), 100*time.Microsecond, 1)
	if out == "" {
		t.Error("narrow render empty")
	}
}

func TestDominantLabelPicksMajority(t *testing.T) {
	busy := []sim.Interval{
		{Start: 0, End: 10, Label: "a"},
		{Start: 10, End: 40, Label: "b"},
	}
	if got := dominantLabel(busy, 0, 40); got != "b" {
		t.Errorf("dominant = %q, want b", got)
	}
	if got := dominantLabel(busy, 0, 15); got != "a" {
		t.Errorf("dominant = %q, want a", got)
	}
	if got := dominantLabel(busy, 50, 60); got != "." {
		t.Errorf("idle slice = %q, want .", got)
	}
}

func TestCompress(t *testing.T) {
	if compress("") != "?" || compress("12") != "1" || compress("s") != "s" {
		t.Error("compress wrong")
	}
}

func TestLegend(t *testing.T) {
	out := Legend(traceProcs())
	if !strings.Contains(out, "3:") || !strings.Contains(out, "4:") {
		t.Errorf("legend missing labels: %q", out)
	}
	if Legend(nil) != "" {
		t.Error("empty legend should be empty")
	}
}

func TestUtilization(t *testing.T) {
	procs := traceProcs()
	// Total busy 125 over 2 procs x 100 time units.
	if got := Utilization(procs, 100*time.Microsecond); got != 0.625 {
		t.Errorf("utilization = %g, want 0.625", got)
	}
	if Utilization(procs, 0) != 0 || Utilization(nil, 100*time.Microsecond) != 0 {
		t.Error("degenerate utilization must be 0")
	}
}
