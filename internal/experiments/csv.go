package experiments

import (
	"fmt"
	"io"
	"sort"
	"strconv"
)

// WriteCSV emits sweep points as CSV with the columns
// shape,strategy,card,procs,runtime,seconds,processes,streams,
// bytes_spilled,spill_partitions,spill_seconds — one row per measurement —
// so the figures can be re-plotted with external tools. The three spill
// columns are zero on the in-memory runtimes. Rows are ordered by
// (shape, card, procs, strategy) for stable diffs.
func WriteCSV(w io.Writer, points []Point) error {
	if _, err := io.WriteString(w, "shape,strategy,card,procs,runtime,seconds,processes,streams,bytes_spilled,spill_partitions,spill_seconds\n"); err != nil {
		return err
	}
	ordered := append([]Point(nil), points...)
	sort.Slice(ordered, func(i, j int) bool {
		a, b := ordered[i], ordered[j]
		if a.Shape != b.Shape {
			return a.Shape < b.Shape
		}
		if a.Card != b.Card {
			return a.Card < b.Card
		}
		if a.Procs != b.Procs {
			return a.Procs < b.Procs
		}
		return a.Strategy < b.Strategy
	})
	for _, p := range ordered {
		_, err := fmt.Fprintf(w, "%s,%s,%d,%d,%s,%s,%d,%d,%d,%d,%s\n",
			p.Shape, p.Strategy, p.Card, p.Procs, p.Runtime,
			strconv.FormatFloat(p.Seconds, 'f', 4, 64),
			p.Stats.Processes, p.Stats.Streams,
			p.Stats.BytesSpilled, p.Stats.SpillPartitions,
			strconv.FormatFloat(p.Stats.SpillTime.Seconds(), 'f', 4, 64))
		if err != nil {
			return err
		}
	}
	return nil
}
