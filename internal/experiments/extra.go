package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"

	"multijoin/internal/core"
	"multijoin/internal/costmodel"
	"multijoin/internal/diagram"
	"multijoin/internal/jointree"
	"multijoin/internal/parallel"
	"multijoin/internal/strategy"
	"multijoin/internal/wisconsin"
)

// UtilizationFigure reproduces the idealized processor-utilization diagrams
// of the example 5-way join tree (Figure 2) on a 10-processor system:
// Figure 3 (SP), Figure 4 (SE), Figure 6 (RD) and Figure 7 (FP).
func UtilizationFigure(fig string) (string, error) {
	kinds := map[string]strategy.Kind{"3": strategy.SP, "4": strategy.SE, "6": strategy.RD, "7": strategy.FP}
	kind, ok := kinds[fig]
	if !ok {
		return "", fmt.Errorf("experiments: no utilization figure %q (want 3, 4, 6 or 7)", fig)
	}
	db, err := wisconsin.Chain(wisconsin.Config{Relations: 5, Cardinality: 4000, Seed: 2})
	if err != nil {
		return "", err
	}
	params := costmodel.Default()
	params.RecordUtilization = true
	// Keep the example tree's join labels but let the cost function derive
	// relative work: the generated data gives every join equal actual work,
	// so allocating by the figure's illustrative labels would starve the
	// top join.
	tree := jointree.Example()
	for _, j := range jointree.Joins(tree) {
		j.Weight = 0
	}
	res, err := core.Exec(context.Background(), core.Query{
		DB: db, Tree: tree, Strategy: kind, Procs: 10, Params: params,
	})
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure %s: %v evaluation of the example join tree (10 processors)\n", fig, kind)
	b.WriteString(diagram.Render(res.Procs, res.Time, 72))
	b.WriteString(diagram.Legend(res.Procs))
	fmt.Fprintf(&b, "response time %.2fs, avg utilization %.0f%%\n\n",
		res.Time.Seconds(), 100*diagram.Utilization(res.Procs, res.Time))
	return b.String(), nil
}

// SingleJoinSpeedup reproduces the Section 2.3.1 observation from [WFA92]:
// intra-operator speedup of a single join flattens and then reverses as the
// degree of parallelism grows, and the optimal number of processors grows
// roughly with the square root of the operand size.
func SingleJoinSpeedup(params costmodel.Params, seed int64) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "Section 2.3.1: single-join intra-operator speedup (response time in seconds)\n")
	sizes := []int{1000, 4000, 16000, 64000}
	procCounts := []int{1, 2, 4, 8, 16, 32, 64}
	fmt.Fprintf(&b, "%-8s", "card")
	for _, p := range procCounts {
		fmt.Fprintf(&b, "%9dp", p)
	}
	fmt.Fprintf(&b, "%10s\n", "best")
	for _, card := range sizes {
		db, err := wisconsin.Chain(wisconsin.Config{Relations: 2, Cardinality: card, Seed: seed})
		if err != nil {
			return "", err
		}
		tree, err := jointree.BuildShape(jointree.LeftLinear, 2)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%-8d", card)
		bestP, bestT := 0, math.Inf(1)
		for _, procs := range procCounts {
			res, err := core.Exec(context.Background(), core.Query{DB: db, Tree: tree, Strategy: strategy.SP, Procs: procs, Params: params})
			if err != nil {
				return "", err
			}
			sec := res.Time.Seconds()
			if sec < bestT {
				bestP, bestT = procs, sec
			}
			fmt.Fprintf(&b, "%10.3f", sec)
		}
		fmt.Fprintf(&b, "%7dp  (sqrt(card)=%.0f)\n", bestP, math.Sqrt(float64(card)))
	}
	b.WriteString("\n")
	return b.String(), nil
}

// PipelineDelay reproduces the Section 2.3.3 result from [WiA93]: each step
// of a *linear* pipeline adds a roughly constant delay, while a step of a
// *bushy* pipeline adds a delay that grows with the operand size. It
// measures FP response times while growing the chain length for linear
// trees (fixed cardinality) and while growing the cardinality for bushy
// trees (fixed length), reporting the per-step increments.
func PipelineDelay(params costmodel.Params, seed int64) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "Section 2.3.3: delay over pipelines under FP\n")
	fmt.Fprintf(&b, "linear pipeline, card=4000: response time vs pipeline length\n")
	fmt.Fprintf(&b, "%-10s%12s%14s\n", "relations", "seconds", "delta/step")
	prev := 0.0
	for k := 3; k <= 10; k++ {
		db, err := wisconsin.Chain(wisconsin.Config{Relations: k, Cardinality: 4000, Seed: seed})
		if err != nil {
			return "", err
		}
		tree, err := jointree.BuildShape(jointree.RightLinear, k)
		if err != nil {
			return "", err
		}
		res, err := core.Exec(context.Background(), core.Query{DB: db, Tree: tree, Strategy: strategy.FP, Procs: 4 * (k - 1), Params: params})
		if err != nil {
			return "", err
		}
		sec := res.Time.Seconds()
		delta := "-"
		if prev > 0 {
			delta = fmt.Sprintf("%.3f", sec-prev)
		}
		fmt.Fprintf(&b, "%-10d%12.3f%14s\n", k, sec, delta)
		prev = sec
	}
	fmt.Fprintf(&b, "bushy pipeline, 8 relations: per-step delay vs operand size\n")
	fmt.Fprintf(&b, "%-10s%12s%16s\n", "card", "seconds", "delay/step")
	for _, card := range []int{1000, 2000, 4000, 8000, 16000} {
		db, err := wisconsin.Chain(wisconsin.Config{Relations: 8, Cardinality: card, Seed: seed})
		if err != nil {
			return "", err
		}
		bushy, err := jointree.BuildShape(jointree.LeftBushy, 8)
		if err != nil {
			return "", err
		}
		res, err := core.Exec(context.Background(), core.Query{DB: db, Tree: bushy, Strategy: strategy.FP, Procs: 28, Params: params})
		if err != nil {
			return "", err
		}
		// The left-bushy 8-relation tree has 3 chain (bushy-pipeline)
		// steps above the leaf joins.
		sec := res.Time.Seconds()
		fmt.Fprintf(&b, "%-10d%12.3f%16.3f\n", card, sec, sec/3)
	}
	b.WriteString("\n")
	return b.String(), nil
}

// Memory reproduces the Section 5 memory observation: RD needs one hash
// table per join where FP's pipelining join maintains two, so RD runs in
// less memory — and, per the disk-based discussion, whether a (sub)tree fits
// the nodes' main memory decides whether inter-join parallelism pays off at
// all. The table reports the peak hash-table footprint per strategy against
// the 16 MB of a PRISMA node.
func Memory(card, procs int, seed int64) (string, error) {
	const nodeBytes = 16 << 20
	r := NewRunner()
	r.Seed = seed
	var b strings.Builder
	fmt.Fprintf(&b, "Section 5 memory footprints: %d tuples/relation, %d processors\n", card, procs)
	fmt.Fprintf(&b, "%-22s%-10s%18s%18s%12s\n",
		"shape", "strategy", "peak/proc (MB)", "peak total (MB)", "fits 16MB")
	mb := func(tuples int) float64 { return float64(tuples) * wisconsin.TupleBytes / (1 << 20) }
	for _, shape := range []jointree.Shape{jointree.WideBushy, jointree.RightLinear} {
		for _, kind := range strategy.Kinds {
			pt, err := r.Run(shape, kind, card, procs, core.DefaultRuntime)
			if err != nil {
				return "", err
			}
			perProc := pt.Stats.PeakTableTuplesPerProc
			fits := "yes"
			if perProc*wisconsin.TupleBytes > nodeBytes {
				fits = "NO"
			}
			fmt.Fprintf(&b, "%-22v%-10v%18.2f%18.2f%12s\n",
				shape, kind, mb(perProc), mb(pt.Stats.PeakTableTuplesTotal), fits)
		}
	}
	b.WriteString("\n")
	return b.String(), nil
}

// MemoryBounded measures the out-of-core scenario class the in-memory
// runtimes cannot run: the wide-bushy query on the spill runtime under a
// sweep of per-run memory budgets, one row per budget × strategy, reporting
// wall-clock seconds against bytes spilled, partition files created, and
// time spent on spill I/O. As the budget shrinks below the working set,
// every strategy degrades toward the same Grace-join profile: the paper's
// pipelining distinctions only exist when operands stay resident.
func MemoryBounded(card, procs int, budgets []int64, seed int64) (string, error) {
	db, err := wisconsin.Chain(wisconsin.Config{Relations: 6, Cardinality: card, Seed: seed})
	if err != nil {
		return "", err
	}
	tree, err := jointree.BuildShape(jointree.WideBushy, db.NumRelations())
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Memory-bounded execution: wide-bushy chain of 6x%d tuples, %d processors, spill runtime\n", card, procs)
	fmt.Fprintf(&b, "%-12s%-10s%12s%14s%12s%12s\n",
		"budget", "strategy", "seconds", "spilled (MB)", "partitions", "io (s)")
	for _, budget := range budgets {
		for _, kind := range strategy.Kinds {
			q := core.Query{DB: db, Tree: tree, Strategy: kind, Procs: procs, Params: costmodel.Default()}
			res, err := core.Exec(context.Background(), q,
				core.WithRuntime("spill"),
				core.WithMaxProcs(parallel.HostCap(procs)),
				core.WithMemoryBudget(budget))
			if err != nil {
				return "", fmt.Errorf("budget %d %v: %w", budget, kind, err)
			}
			fmt.Fprintf(&b, "%-12s%-10v%12.3f%14.2f%12d%12.3f\n",
				formatBytes(budget), kind, res.Time.Seconds(),
				float64(res.Stats.BytesSpilled)/(1<<20),
				res.Stats.SpillPartitions, res.Stats.SpillTime.Seconds())
		}
	}
	b.WriteString("\n")
	return b.String(), nil
}

// formatBytes renders a byte count with a binary unit suffix.
func formatBytes(n int64) string {
	switch {
	case n >= 1<<30 && n%(1<<30) == 0:
		return fmt.Sprintf("%dGiB", n>>30)
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dMiB", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dKiB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// CostFunction reproduces the Section 5 observation that "FP, SE, and RD
// need a cost function to estimate the costs of the constituent binary
// joins": on a non-regular chain (relation sizes halving along the chain —
// the 'real-life' workloads the paper's closing section asks about),
// allocating processors proportionally to estimated work is compared with a
// naive equal split. SP is listed as the control: it needs no cost function
// and is unaffected.
func CostFunction(procs int, seed int64) (string, error) {
	cards := []int{32000, 16000, 8000, 4000, 2000, 1000, 500, 250, 125, 64}
	db, err := wisconsin.Chain(wisconsin.Config{Cards: cards, Seed: seed})
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Section 5 cost-function ablation: halving chain %v..%d tuples, %d processors\n",
		cards[0], cards[len(cards)-1], procs)
	fmt.Fprintf(&b, "%-10s%20s%18s%12s\n", "strategy", "cost-based (s)", "equal split (s)", "penalty")
	tree, err := jointree.BuildShape(jointree.RightBushy, len(cards))
	if err != nil {
		return "", err
	}
	for _, kind := range strategy.Kinds {
		var secs [2]float64
		for i, equal := range []bool{false, true} {
			res, err := core.Exec(context.Background(), core.Query{
				DB: db, Tree: tree, Strategy: kind, Procs: procs,
				Params: costmodel.Default(), EqualWork: equal,
			})
			if err != nil {
				return "", err
			}
			secs[i] = res.Time.Seconds()
		}
		fmt.Fprintf(&b, "%-10v%20.2f%18.2f%11.0f%%\n",
			kind, secs[0], secs[1], 100*(secs[1]/secs[0]-1))
	}
	b.WriteString("\n")
	return b.String(), nil
}

// Ablation quantifies the Section 3.5 overhead tradeoffs by zeroing one
// machine-model overhead at a time and re-measuring the left-linear SP
// sweep, the configuration the paper identifies as most overhead-bound.
func Ablation(card int, seed int64) (string, error) {
	configs := []struct {
		name string
		mod  func(*costmodel.Params)
	}{
		{"default", func(*costmodel.Params) {}},
		{"no-startup", func(p *costmodel.Params) { p.Startup = 0 }},
		{"no-handshake", func(p *costmodel.Params) { p.Handshake = 0 }},
		{"no-overhead", func(p *costmodel.Params) { p.Startup = 0; p.Handshake = 0; p.NetLatency = 0 }},
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Section 3.5 ablation: left-linear SP response time (seconds), card=%d\n", card)
	fmt.Fprintf(&b, "%-14s", "procs")
	procCounts := []int{20, 40, 60, 80}
	for _, p := range procCounts {
		fmt.Fprintf(&b, "%10d", p)
	}
	b.WriteByte('\n')
	for _, cfg := range configs {
		r := NewRunner()
		r.Seed = seed
		cfg.mod(&r.Params)
		fmt.Fprintf(&b, "%-14s", cfg.name)
		for _, procs := range procCounts {
			pt, err := r.Run(jointree.LeftLinear, strategy.SP, card, procs, core.DefaultRuntime)
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&b, "%10.2f", pt.Seconds)
		}
		b.WriteByte('\n')
	}
	b.WriteString("\n")
	return b.String(), nil
}
