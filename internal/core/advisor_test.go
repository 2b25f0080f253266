package core

import (
	"context"
	"testing"

	"multijoin/internal/costmodel"
	"multijoin/internal/jointree"
	"multijoin/internal/strategy"
)

func adviseShape(t *testing.T, shape jointree.Shape, procs int, card float64) Advice {
	t.Helper()
	tree, err := jointree.BuildShape(shape, 10)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Advise(AdviseInput{Tree: tree, Procs: procs, Card: card})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestAdviseSmallMachine(t *testing.T) {
	for _, shape := range jointree.Shapes {
		a := adviseShape(t, shape, 10, 5000)
		if a.Strategy != strategy.SP {
			t.Errorf("%v on 10 procs: advised %v, want SP", shape, a.Strategy)
		}
	}
}

func TestAdviseWideBushyLarge(t *testing.T) {
	a := adviseShape(t, jointree.WideBushy, 80, 40000)
	if a.Strategy != strategy.SE {
		t.Errorf("wide bushy 40K: advised %v, want SE", a.Strategy)
	}
}

func TestAdviseWideBushySmallProblem(t *testing.T) {
	a := adviseShape(t, jointree.WideBushy, 80, 5000)
	if a.Strategy == strategy.SP {
		t.Errorf("wide bushy 5K on 80 procs must not fall back to SP")
	}
}

func TestAdviseRightOriented(t *testing.T) {
	a := adviseShape(t, jointree.RightBushy, 80, 5000)
	if a.Strategy != strategy.RD || a.MirrorFirst {
		t.Errorf("right bushy: advised %v (mirror=%v), want RD without mirroring",
			a.Strategy, a.MirrorFirst)
	}
}

func TestAdviseLeftOrientedMirrors(t *testing.T) {
	a := adviseShape(t, jointree.LeftBushy, 80, 5000)
	if a.Strategy != strategy.RD || !a.MirrorFirst {
		t.Errorf("left bushy: advised %v (mirror=%v), want RD after mirroring",
			a.Strategy, a.MirrorFirst)
	}
}

func TestAdviseLinearFP(t *testing.T) {
	for _, shape := range []jointree.Shape{jointree.LeftLinear, jointree.RightLinear} {
		a := adviseShape(t, shape, 80, 5000)
		want := strategy.FP
		if shape == jointree.RightLinear {
			// A right-linear tree is one long segment: RD (which then
			// coincides with FP) is an equally valid answer.
			if a.Strategy != strategy.RD && a.Strategy != strategy.FP {
				t.Errorf("right-linear: advised %v", a.Strategy)
			}
			continue
		}
		if a.Strategy != want {
			t.Errorf("%v: advised %v, want %v", shape, a.Strategy, want)
		}
	}
}

func TestAdviseMemoryConstrained(t *testing.T) {
	tree, err := jointree.BuildShape(jointree.WideBushy, 10)
	if err != nil {
		t.Fatal(err)
	}
	// 40 million tuples per relation on 80 nodes of 16 MB: a single build
	// table (208 B x 40e6 / 80 = 104 MB/node) cannot fit.
	a, err := Advise(AdviseInput{Tree: tree, Procs: 80, Card: 40e6, NodeMemoryBytes: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if a.Strategy != strategy.SP {
		t.Errorf("memory-constrained: advised %v, want SP", a.Strategy)
	}
	// The same query with enough memory must not degrade to SP.
	a, err = Advise(AdviseInput{Tree: tree, Procs: 80, Card: 40000, NodeMemoryBytes: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if a.Strategy == strategy.SP {
		t.Error("memory rule fired although the join fits")
	}
}

func TestAdviseErrors(t *testing.T) {
	if _, err := Advise(AdviseInput{Procs: 8}); err == nil {
		t.Error("nil tree must fail")
	}
	tree, _ := jointree.BuildShape(jointree.WideBushy, 4)
	if _, err := Advise(AdviseInput{Tree: tree}); err == nil {
		t.Error("zero processors must fail")
	}
}

// TestAdviceIsGood: the advised strategy must never be much worse than the
// best strategy for the configuration — the paper's "missing the very best
// plan is not a big problem as long as you will not come up with a very bad
// one" [KBZ86].
func TestAdviceIsGood(t *testing.T) {
	db := testDB(t, 10, 2000)
	for _, shape := range jointree.Shapes {
		for _, procs := range []int{12, 48} {
			tree, err := jointree.BuildShape(shape, 10)
			if err != nil {
				t.Fatal(err)
			}
			a, err := Advise(AdviseInput{Tree: tree, Procs: procs, SpanCard: db.SpanCard})
			if err != nil {
				t.Fatal(err)
			}
			runTree := tree
			if a.MirrorFirst {
				runTree = jointree.Clone(tree)
				jointree.Mirror(runTree)
			}
			advised, err := Exec(context.Background(), Query{DB: db, Tree: runTree, Strategy: a.Strategy,
				Procs: procs, Params: costmodel.Default()})
			if err != nil {
				t.Fatal(err)
			}
			best := advised.Time.Seconds()
			for _, kind := range strategy.Kinds {
				r, err := Exec(context.Background(), Query{DB: db, Tree: tree, Strategy: kind,
					Procs: procs, Params: costmodel.Default()})
				if err != nil {
					t.Fatal(err)
				}
				if s := r.Time.Seconds(); s < best {
					best = s
				}
			}
			if got := advised.Time.Seconds(); got > 2.0*best {
				t.Errorf("%v/%d procs: advised %v (mirror=%v) took %.3fs, best is %.3fs",
					shape, procs, a.Strategy, a.MirrorFirst, got, best)
			}
		}
	}
}
