package multijoin_test

import (
	"context"
	"strings"
	"testing"

	"multijoin"
)

// TestFacadeEndToEnd exercises the unified Exec API on every registered
// runtime: every strategy, verified against the sequential reference.
func TestFacadeEndToEnd(t *testing.T) {
	db, err := multijoin.NewDatabase(6, 300, 7)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := multijoin.BuildTree(multijoin.RightBushy, 6)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, rt := range multijoin.RuntimeNames() {
		for _, s := range multijoin.Strategies {
			res, err := multijoin.Exec(ctx, multijoin.Query{
				DB: db, Tree: tree, Strategy: s, Procs: 10,
				Params: multijoin.DefaultParams(),
			}, multijoin.WithRuntime(rt), multijoin.WithVerify())
			if err != nil {
				t.Fatalf("%s/%v: %v", rt, s, err)
			}
			if res.Runtime != rt {
				t.Errorf("%s/%v: result names runtime %q", rt, s, res.Runtime)
			}
			if res.Virtual != (rt == "sim") {
				t.Errorf("%s/%v: Virtual = %v", rt, s, res.Virtual)
			}
			if res.Stats.ResultTuples != 300 {
				t.Errorf("%s/%v: %d result tuples", rt, s, res.Stats.ResultTuples)
			}
			if res.Time <= 0 {
				t.Errorf("%s/%v: non-positive time %v", rt, s, res.Time)
			}
		}
	}
}

// TestFacadeExecUnknownRuntime checks that the registry error names the
// registered runtimes.
func TestFacadeExecUnknownRuntime(t *testing.T) {
	db, err := multijoin.NewDatabase(4, 100, 7)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := multijoin.BuildTree(multijoin.LeftLinear, 4)
	if err != nil {
		t.Fatal(err)
	}
	q := multijoin.Query{DB: db, Tree: tree, Strategy: multijoin.FP, Procs: 4, Params: multijoin.DefaultParams()}
	_, err = multijoin.Exec(context.Background(), q, multijoin.WithRuntime("warp-drive"))
	if err == nil {
		t.Fatal("unknown runtime must fail")
	}
	for _, want := range []string{"warp-drive", "sim", "parallel"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

func TestFacadeTwoPhase(t *testing.T) {
	db, err := multijoin.NewDatabase(8, 200, 11)
	if err != nil {
		t.Fatal(err)
	}
	tree, res, err := multijoin.TwoPhase(db, multijoin.BushySpace, multijoin.FP, 12, multijoin.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if tree == nil || res.Stats.ResultTuples != 200 {
		t.Errorf("two-phase result wrong")
	}
}

func TestFacadeOptimize(t *testing.T) {
	cat := multijoin.UniformCatalog(6, 100)
	tree, cost, err := multijoin.Optimize(cat, multijoin.LinearSpace)
	if err != nil {
		t.Fatal(err)
	}
	if tree == nil || cost <= 0 {
		t.Error("optimize returned nothing")
	}
}

func TestFacadePlanTextRoundTrip(t *testing.T) {
	db, err := multijoin.NewDatabase(5, 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	q := multijoin.Query{
		DB: db, Tree: multijoin.ExampleTree(), Strategy: multijoin.RD, Procs: 10,
		Params: multijoin.DefaultParams(),
	}
	plan, err := q.Plan()
	if err != nil {
		t.Fatal(err)
	}
	text := multijoin.EncodePlan(plan)
	if !strings.Contains(text, "strategy=RD") {
		t.Errorf("encoded plan missing strategy:\n%s", text)
	}
	back, err := multijoin.ParsePlan(text)
	if err != nil {
		t.Fatal(err)
	}
	if multijoin.EncodePlan(back) != text {
		t.Error("plan text round trip unstable")
	}
}

func TestFacadeReference(t *testing.T) {
	db, err := multijoin.NewDatabase(4, 150, 5)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := multijoin.BuildTree(multijoin.LeftLinear, 4)
	if err != nil {
		t.Fatal(err)
	}
	ref := multijoin.Reference(db, tree)
	if ref.Card() != 150 {
		t.Errorf("reference card %d", ref.Card())
	}
}

func TestFacadeAdvise(t *testing.T) {
	tree, err := multijoin.BuildTree(multijoin.RightBushy, 10)
	if err != nil {
		t.Fatal(err)
	}
	a, err := multijoin.Advise(multijoin.AdviseInput{Tree: tree, Procs: 80, Card: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if a.Strategy != multijoin.RD {
		t.Errorf("right bushy on 80 procs: advised %v, want RD", a.Strategy)
	}
	if a.Reason == "" {
		t.Error("advice must carry a reason")
	}
}
