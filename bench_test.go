// Benchmarks regenerating every table and figure of the paper's evaluation
// section. Each benchmark runs the corresponding experiment on the simulated
// PRISMA/DB machine at the paper's full scale (10 Wisconsin relations, 5K
// and 40K tuples per relation, 20-80 processors) and logs the regenerated
// table; the paper's headline number for the configuration is also exposed
// as a custom metric (virtual seconds, reported as resp-s/op).
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// The equivalent command-line tool is cmd/mjbench.
package multijoin_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"multijoin"
	"multijoin/internal/experiments"
	"multijoin/internal/jointree"
	"multijoin/internal/strategy"
)

// sweepOnce caches full-size sweeps so that Figure 14 (which aggregates all
// of Figures 9-13) does not recompute them, mirroring how the paper derives
// its summary table from the same measurement set.
var (
	sweepMu    sync.Mutex
	sweepCache = map[string][]experiments.Point{}
	runner     = experiments.NewRunner()
)

func sweep(b *testing.B, shape jointree.Shape, size experiments.ProblemSize) []experiments.Point {
	b.Helper()
	sweepMu.Lock()
	defer sweepMu.Unlock()
	key := shape.String() + "/" + size.Name
	if pts, ok := sweepCache[key]; ok {
		return pts
	}
	pts, err := runner.SweepShape(shape, size, multijoin.DefaultRuntime)
	if err != nil {
		b.Fatal(err)
	}
	sweepCache[key] = pts
	return pts
}

// benchFigure regenerates one response-time figure (both problem sizes).
func benchFigure(b *testing.B, fig string, shape jointree.Shape) {
	var last float64
	for i := 0; i < b.N; i++ {
		for _, size := range experiments.Sizes {
			pts := sweep(b, shape, size)
			if i == 0 {
				title := "Figure " + fig + ": " + shape.String() + " / " + size.Name
				b.Logf("\n%s", experiments.FormatSweep(title, pts))
			}
			best := experiments.BestOf(shape, size, pts)
			last = best.Seconds
		}
	}
	b.ReportMetric(last, "best-resp-s")
}

func BenchmarkFigure9_LeftLinear(b *testing.B)   { benchFigure(b, "9", jointree.LeftLinear) }
func BenchmarkFigure10_LeftBushy(b *testing.B)   { benchFigure(b, "10", jointree.LeftBushy) }
func BenchmarkFigure11_WideBushy(b *testing.B)   { benchFigure(b, "11", jointree.WideBushy) }
func BenchmarkFigure12_RightBushy(b *testing.B)  { benchFigure(b, "12", jointree.RightBushy) }
func BenchmarkFigure13_RightLinear(b *testing.B) { benchFigure(b, "13", jointree.RightLinear) }

// BenchmarkFigure14_BestTimes regenerates the paper's summary table of best
// response times per query shape and problem size.
func BenchmarkFigure14_BestTimes(b *testing.B) {
	var bestBushy float64
	for i := 0; i < b.N; i++ {
		var rows []experiments.Best
		for _, shape := range jointree.Shapes {
			for _, size := range experiments.Sizes {
				rows = append(rows, experiments.BestOf(shape, size, sweep(b, shape, size)))
			}
		}
		if i == 0 {
			b.Logf("\n%s", experiments.FormatFigure14(rows))
		}
		for _, r := range rows {
			if r.Shape == jointree.WideBushy && r.Size.Name == "5K" {
				bestBushy = r.Seconds
			}
		}
	}
	b.ReportMetric(bestBushy, "widebushy5K-s")
}

// benchUtilization regenerates one processor-utilization diagram of the
// example 5-way tree on 10 processors.
func benchUtilization(b *testing.B, fig string) {
	for i := 0; i < b.N; i++ {
		out, err := experiments.UtilizationFigure(fig)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", out)
		}
	}
}

func BenchmarkFigure3_SPUtilization(b *testing.B) { benchUtilization(b, "3") }
func BenchmarkFigure4_SEUtilization(b *testing.B) { benchUtilization(b, "4") }
func BenchmarkFigure6_RDUtilization(b *testing.B) { benchUtilization(b, "6") }
func BenchmarkFigure7_FPUtilization(b *testing.B) { benchUtilization(b, "7") }

// BenchmarkSingleJoinSpeedup regenerates the Section 2.3.1 experiment:
// intra-operator speedup of one join and the square-root rule for the
// optimal number of processors.
func BenchmarkSingleJoinSpeedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := experiments.SingleJoinSpeedup(runner.Params, 1995)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", out)
		}
	}
}

// BenchmarkPipelineDelay regenerates the Section 2.3.3 experiment: constant
// per-step delay of linear pipelines vs operand-size-proportional delay of
// bushy pipelines.
func BenchmarkPipelineDelay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := experiments.PipelineDelay(runner.Params, 1995)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", out)
		}
	}
}

// BenchmarkAblationOverheads regenerates the Section 3.5 ablation: zeroing
// startup and handshake overheads one at a time on the overhead-bound SP
// configuration.
func BenchmarkAblationOverheads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := experiments.Ablation(5000, 1995)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", out)
		}
	}
}

// BenchmarkEngineSingleQuery measures raw simulator throughput for one
// mid-sized FP query — a plain Go benchmark of the engine itself.
func BenchmarkEngineSingleQuery(b *testing.B) {
	r := experiments.NewRunner()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(jointree.WideBushy, strategy.FP, 5000, 40, multijoin.DefaultRuntime); err != nil {
			b.Fatal(err)
		}
	}
}

// benchParallelVsSim runs the same mid-sized wide-bushy query through both
// runtimes for one strategy: the benchmark's own ns/op is the goroutine
// runtime's real wall clock; the simulator's prediction for the identical
// plan is reported alongside as sim-resp-s. Comparing the four strategies'
// benchmarks shows whether the paper's virtual-clock ordering (FP/SE ahead
// of SP at this scale) survives contact with real cores.
func benchParallelVsSim(b *testing.B, kind strategy.Kind) {
	db, err := multijoin.NewDatabase(10, 5000, 1995)
	if err != nil {
		b.Fatal(err)
	}
	tree, err := multijoin.BuildTree(multijoin.WideBushy, 10)
	if err != nil {
		b.Fatal(err)
	}
	// Plans target 16 processors (RD and FP need one per concurrent join);
	// the runtime's slot count caps real concurrency at the host cores.
	const procs = 16
	maxProcs := multijoin.HostCap(procs)
	q := multijoin.Query{DB: db, Tree: tree, Strategy: kind, Procs: procs, Params: multijoin.DefaultParams()}
	ctx := context.Background()
	simRes, err := multijoin.Exec(ctx, q)
	if err != nil {
		b.Fatal(err)
	}
	var wall time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := multijoin.Exec(ctx, q,
			multijoin.WithRuntime("parallel"), multijoin.WithMaxProcs(maxProcs))
		if err != nil {
			b.Fatal(err)
		}
		wall = res.Time
	}
	b.StopTimer()
	b.ReportMetric(simRes.Time.Seconds(), "sim-resp-s")
	b.ReportMetric(wall.Seconds(), "real-wall-s")
}

func BenchmarkParallelVsSim_SP(b *testing.B) { benchParallelVsSim(b, strategy.SP) }
func BenchmarkParallelVsSim_SE(b *testing.B) { benchParallelVsSim(b, strategy.SE) }
func BenchmarkParallelVsSim_RD(b *testing.B) { benchParallelVsSim(b, strategy.RD) }
func BenchmarkParallelVsSim_FP(b *testing.B) { benchParallelVsSim(b, strategy.FP) }
