package pipemodel

import (
	"context"
	"testing"

	"multijoin/internal/core"
	"multijoin/internal/costmodel"
	"multijoin/internal/jointree"
	"multijoin/internal/strategy"
	"multijoin/internal/wisconsin"
)

func model() Model { return New(costmodel.Default()) }

func TestLinearStepDelayConstant(t *testing.T) {
	m := model()
	small := m.StepDelay(false, 1000, 4)
	large := m.StepDelay(false, 64000, 4)
	if small != large {
		t.Errorf("linear step delay must not depend on operand size: %v vs %v", small, large)
	}
	if small <= 0 {
		t.Error("step delay must be positive")
	}
}

func TestBushyStepDelayGrowsWithOperands(t *testing.T) {
	m := model()
	prev := m.StepDelay(true, 1000, 4)
	for _, card := range []float64{2000, 4000, 8000} {
		cur := m.StepDelay(true, card, 4)
		if cur <= prev {
			t.Errorf("bushy step delay must grow with card: %v at %g after %v", cur, card, prev)
		}
		prev = cur
	}
	// And shrink with more processors (the Figure 10 explanation).
	few := m.StepDelay(true, 8000, 2)
	many := m.StepDelay(true, 8000, 16)
	if many >= few {
		t.Errorf("bushy step delay must shrink with processors: %v (16p) vs %v (2p)", many, few)
	}
}

func TestBushyExceedsLinear(t *testing.T) {
	m := model()
	if m.StepDelay(true, 4000, 4) <= m.StepDelay(false, 4000, 4) {
		t.Error("a bushy step must cost at least a linear step")
	}
}

func TestClassify(t *testing.T) {
	tree, err := jointree.BuildShape(jointree.LeftBushy, 8)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[PipelineKind]int{}
	for _, j := range jointree.Joins(tree) {
		counts[Classify(j)]++
	}
	// Left bushy over 8 relations: 4 leaf joins, 3 bushy chain steps.
	if counts[LeafJoin] != 4 || counts[BushyStep] != 3 || counts[LinearStep] != 0 {
		t.Errorf("classification = %v", counts)
	}
	ll, _ := jointree.BuildShape(jointree.LeftLinear, 8)
	counts = map[PipelineKind]int{}
	for _, j := range jointree.Joins(ll) {
		counts[Classify(j)]++
	}
	if counts[LeafJoin] != 1 || counts[LinearStep] != 6 {
		t.Errorf("left-linear classification = %v", counts)
	}
	if LeafJoin.String() != "leaf" || LinearStep.String() != "linear-step" || BushyStep.String() != "bushy-step" {
		t.Error("kind names wrong")
	}
}

func TestLinearResponseGrowsPerStep(t *testing.T) {
	m := model()
	prev := m.LinearResponse(3, 4000, 8)
	for k := 4; k <= 10; k++ {
		cur := m.LinearResponse(k, 4000, 4*(k-1))
		// With processors scaled to keep per-join parallelism constant,
		// response grows roughly linearly in pipeline length.
		if cur <= prev {
			t.Errorf("linear response must grow with chain length: %v at k=%d after %v", cur, k, prev)
		}
		prev = cur
	}
	if m.LinearResponse(1, 100, 4) != 0 {
		t.Error("degenerate chain must cost 0")
	}
}

// TestModelMatchesSimulatorTrend compares the analytical model against the
// discrete-event simulator on the Section 2.3.3 setups: both must agree that
// (a) linear-chain response grows by a near-constant per step, and (b) the
// bushy per-step delay grows with cardinality.
func TestModelMatchesSimulatorTrend(t *testing.T) {
	m := model()
	// (b): bushy trees, fixed shape, growing cardinality. Compare the
	// growth factor of simulated response vs modeled response.
	shape, _ := jointree.BuildShape(jointree.LeftBushy, 8)
	simAt := func(card int) float64 {
		db, err := wisconsin.Chain(wisconsin.Config{Relations: 8, Cardinality: card, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Exec(context.Background(), core.Query{DB: db, Tree: shape, Strategy: strategy.FP, Procs: 28,
			Params: costmodel.Default()})
		if err != nil {
			t.Fatal(err)
		}
		return res.Time.Seconds()
	}
	simGrowth := simAt(8000) / simAt(1000)
	modelGrowth := float64(m.BushyResponse(3, 8000, 28)) / float64(m.BushyResponse(3, 1000, 28))
	if simGrowth < 2 || modelGrowth < 2 {
		t.Errorf("both must show strong growth with cardinality: sim %.2fx, model %.2fx",
			simGrowth, modelGrowth)
	}
	if ratio := simGrowth / modelGrowth; ratio < 0.3 || ratio > 3 {
		t.Errorf("simulator growth %.2fx and model growth %.2fx diverge beyond 3x",
			simGrowth, modelGrowth)
	}
}

func TestCriticalPathOrdersShapes(t *testing.T) {
	m := model()
	ll, _ := jointree.BuildShape(jointree.LeftLinear, 10)
	wb, _ := jointree.BuildShape(jointree.WideBushy, 10)
	// Small operands: the bushy ramp is negligible, so the deeper tree
	// (left-linear, 9 steps) has the longer critical path — "when the join
	// operands are small, a bushy tree works better" (Section 2.3.3).
	if m.CriticalPath(ll, 200, 4) <= m.CriticalPath(wb, 200, 4) {
		t.Error("small operands: linear critical path must exceed wide bushy")
	}
	// Large operands at low parallelism: the bushy steps' size-proportional
	// delay dominates and the ordering flips — "for larger operands linear
	// trees work better".
	if m.CriticalPath(ll, 50000, 4) >= m.CriticalPath(wb, 50000, 4) {
		t.Error("large operands: bushy critical path must exceed linear")
	}
}

func TestCrossoverCard(t *testing.T) {
	m := model()
	// Small operands: bushy faster; large operands: linear closes in
	// (constant vs proportional step delay). The crossover must be finite
	// and positive when bushy steps are expensive relative to the shorter
	// pipeline, or +Inf when bushy always wins; with 9 linear joins vs 3
	// bushy steps the bushy tree is shorter, so at tiny cards it must win.
	cross := m.CrossoverCard(9, 3, 12)
	bushySmall := m.BushyResponse(3, 500, 12)
	linearSmall := m.LinearResponse(10, 500, 12)
	if bushySmall >= linearSmall {
		t.Errorf("at 500 tuples the bushy tree must win: %v vs %v", bushySmall, linearSmall)
	}
	if cross <= 500 {
		t.Errorf("crossover %g inconsistent with bushy winning at 500", cross)
	}
}
