// Package diagram renders the paper's idealized processor-utilization
// diagrams (Figures 3, 4, 6 and 7) in ASCII: the x-axis is virtual time,
// each row is one processor, and each cell shows the label of the join the
// processor was working on during that time slice (`.` for idle, `s` for
// scan work, `h` is folded into the join label because handshakes are
// recorded under the operator's label).
package diagram

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"multijoin/internal/sim"
)

// virtual maps the end of a run, reported as a time.Duration, back onto the
// virtual-microsecond axis the processors' busy intervals are recorded on —
// the one inverse of the conversion the simulator applies where a run ends.
func virtual(end time.Duration) sim.Time { return sim.Time(end / time.Microsecond) }

// Render draws the utilization of the given processors over [0, end) using
// width character columns. Each cell shows the label that occupied the
// majority of the corresponding time slice. runEnd is the run's response time
// as Result.Time reports it.
func Render(procs []*sim.Proc, runEnd time.Duration, width int) string {
	end := virtual(runEnd)
	if width < 10 {
		width = 10
	}
	if end <= 0 {
		return "(empty trace)\n"
	}
	slice := (sim.Duration(end) + sim.Duration(width) - 1) / sim.Duration(width)
	if slice <= 0 {
		slice = 1
	}
	ordered := append([]*sim.Proc(nil), procs...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].ID > ordered[j].ID })

	var b strings.Builder
	fmt.Fprintf(&b, "time: 0 .. %.2fs  (one column = %.3fs)\n", end.Seconds(), slice.Seconds())
	for _, p := range ordered {
		fmt.Fprintf(&b, "%3d |", p.ID)
		for c := 0; c < width; c++ {
			lo := sim.Time(sim.Duration(c) * slice)
			hi := lo + sim.Time(slice)
			b.WriteString(dominantLabel(p.Busy(), lo, hi))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// dominantLabel returns the single-character label with the largest overlap
// with [lo, hi), or "." if the processor was idle.
func dominantLabel(busy []sim.Interval, lo, hi sim.Time) string {
	best := "."
	var bestOverlap sim.Duration
	for _, iv := range busy {
		if iv.End <= lo {
			continue
		}
		if iv.Start >= hi {
			break
		}
		s, e := iv.Start, iv.End
		if s < lo {
			s = lo
		}
		if e > hi {
			e = hi
		}
		if d := sim.Duration(e - s); d > bestOverlap {
			bestOverlap = d
			best = compress(iv.Label)
		}
	}
	return best
}

// compress shortens a label to one character.
func compress(label string) string {
	if label == "" {
		return "?"
	}
	return label[:1]
}

// Legend summarizes the total busy time per label across processors —
// useful next to a rendered diagram.
func Legend(procs []*sim.Proc) string {
	totals := map[string]sim.Duration{}
	for _, p := range procs {
		for _, iv := range p.Busy() {
			totals[compress(iv.Label)] += sim.Duration(iv.End - iv.Start)
		}
	}
	labels := make([]string, 0, len(totals))
	for l := range totals {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	var b strings.Builder
	for _, l := range labels {
		fmt.Fprintf(&b, "  %s: %.2fs busy", l, totals[l].Seconds())
	}
	if b.Len() > 0 {
		b.WriteByte('\n')
	}
	return b.String()
}

// Utilization returns the average fraction of [0, end) the processors spent
// busy — the idealized diagrams of the paper correspond to 1.0 inside each
// strategy's active phase.
func Utilization(procs []*sim.Proc, runEnd time.Duration) float64 {
	end := virtual(runEnd)
	if end <= 0 || len(procs) == 0 {
		return 0
	}
	var busy sim.Duration
	for _, p := range procs {
		busy += p.BusyTime()
	}
	return float64(busy) / (float64(end) * float64(len(procs)))
}
