package core

import (
	"context"
	"testing"

	"multijoin/internal/costmodel"
	"multijoin/internal/jointree"
	"multijoin/internal/strategy"
	"multijoin/internal/wisconsin"
)

// These tests pin the qualitative findings of the paper's evaluation at a
// reduced scale (2000-tuple relations), so the full conclusions of Section 5
// are guarded by the test suite, not only by the benchmark harness.

func measure(t *testing.T, db *wisconsin.Database, shape jointree.Shape, kind strategy.Kind, procs int) *Result {
	t.Helper()
	tree, err := jointree.BuildShape(shape, db.NumRelations())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Exec(context.Background(), Query{DB: db, Tree: tree, Strategy: kind, Procs: procs,
		Params: costmodel.Default()})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestLinearDegenerations(t *testing.T) {
	db := testDB(t, 10, 2000)
	// Figure 9: SP, SE and RD coincide exactly on a left-linear tree.
	sp := measure(t, db, jointree.LeftLinear, strategy.SP, 16)
	se := measure(t, db, jointree.LeftLinear, strategy.SE, 16)
	rd := measure(t, db, jointree.LeftLinear, strategy.RD, 16)
	if sp.Time != se.Time || sp.Time != rd.Time {
		t.Errorf("left-linear: SP=%v SE=%v RD=%v, want identical",
			sp.Time, se.Time, rd.Time)
	}
	// Figure 13: SE still coincides with SP on a right-linear tree, while
	// RD forms a pipeline and beats both at scale.
	sp = measure(t, db, jointree.RightLinear, strategy.SP, 48)
	se = measure(t, db, jointree.RightLinear, strategy.SE, 48)
	rd = measure(t, db, jointree.RightLinear, strategy.RD, 48)
	if sp.Time != se.Time {
		t.Errorf("right-linear: SP=%v SE=%v, want identical", sp.Time, se.Time)
	}
	if rd.Time >= sp.Time {
		t.Errorf("right-linear at 48 procs: RD=%v not better than SP=%v",
			rd.Time, sp.Time)
	}
}

func TestSPDegradesWithParallelism(t *testing.T) {
	// Section 5: "SP works fine for a small number of processors, but for a
	// larger number the startup and coordination overhead get prohibitive."
	db := testDB(t, 10, 2000)
	small := measure(t, db, jointree.WideBushy, strategy.SP, 16)
	large := measure(t, db, jointree.WideBushy, strategy.SP, 64)
	if large.Time <= small.Time {
		t.Errorf("SP at 64 procs (%v) should be slower than at 16 (%v) for a small problem",
			large.Time, small.Time)
	}
}

func TestFPBestAtScale(t *testing.T) {
	// Section 5: "FP gives the best overall performance over the entire
	// range of query shapes, when large numbers of processors are used."
	db := testDB(t, 10, 2000)
	for _, shape := range jointree.Shapes {
		fp := measure(t, db, shape, strategy.FP, 64)
		for _, other := range []strategy.Kind{strategy.SP, strategy.SE} {
			o := measure(t, db, shape, other, 64)
			if fp.Time >= o.Time {
				t.Errorf("%v at 64 procs: FP=%v not better than %v=%v",
					shape, fp.Time, other, o.Time)
			}
		}
	}
}

func TestRDWinsRightOrientedTrees(t *testing.T) {
	// Figure 12: RD performs best on the right-oriented bushy tree (here
	// against SE and SP; FP is allowed to come close).
	db := testDB(t, 10, 2000)
	rd := measure(t, db, jointree.RightBushy, strategy.RD, 32)
	for _, other := range []strategy.Kind{strategy.SP, strategy.SE} {
		o := measure(t, db, jointree.RightBushy, other, 32)
		if rd.Time >= o.Time {
			t.Errorf("right-bushy at 32 procs: RD=%v not better than %v=%v",
				rd.Time, other, o.Time)
		}
	}
}

func TestSEBeatsRDOnWideBushy(t *testing.T) {
	// Figure 11: the wide bushy tree is SE's territory among the
	// non-pipelining strategies.
	db := testDB(t, 10, 2000)
	se := measure(t, db, jointree.WideBushy, strategy.SE, 32)
	rd := measure(t, db, jointree.WideBushy, strategy.RD, 32)
	sp := measure(t, db, jointree.WideBushy, strategy.SP, 32)
	if se.Time >= rd.Time || se.Time >= sp.Time {
		t.Errorf("wide-bushy at 32 procs: SE=%v RD=%v SP=%v; SE should lead",
			se.Time, rd.Time, sp.Time)
	}
}

func TestFPNeedsMoreMemoryThanRD(t *testing.T) {
	// Section 5: "RD uses less memory than FP because only one hash-table
	// needs to be built."
	db := testDB(t, 10, 2000)
	fp := measure(t, db, jointree.WideBushy, strategy.FP, 32)
	rd := measure(t, db, jointree.WideBushy, strategy.RD, 32)
	if fp.Stats.PeakTableTuplesPerProc <= rd.Stats.PeakTableTuplesPerProc {
		t.Errorf("peak table tuples per proc: FP=%d should exceed RD=%d",
			fp.Stats.PeakTableTuplesPerProc, rd.Stats.PeakTableTuplesPerProc)
	}
	if fp.Stats.PeakTableTuplesTotal <= rd.Stats.PeakTableTuplesTotal {
		t.Errorf("peak table tuples total: FP=%d should exceed RD=%d",
			fp.Stats.PeakTableTuplesTotal, rd.Stats.PeakTableTuplesTotal)
	}
}

func TestMemoryAccountingBounds(t *testing.T) {
	db := testDB(t, 6, 500)
	for _, kind := range strategy.Kinds {
		res := measure(t, db, jointree.WideBushy, kind, 8)
		if res.Stats.PeakTableTuplesTotal <= 0 {
			t.Errorf("%v: no table memory recorded", kind)
		}
		// Upper bound: every operand of every join resident at once, both
		// tables: 2 operands x 5 joins x 500 tuples.
		if res.Stats.PeakTableTuplesTotal > 2*5*500 {
			t.Errorf("%v: peak %d exceeds physical bound", kind, res.Stats.PeakTableTuplesTotal)
		}
		if res.Stats.PeakTableTuplesPerProc > res.Stats.PeakTableTuplesTotal {
			t.Errorf("%v: per-proc peak exceeds total peak", kind)
		}
	}
}

func TestBushyBeatsLinearAtBest(t *testing.T) {
	// Figure 14's headline: bushy trees give better best response times
	// than linear trees.
	db := testDB(t, 10, 2000)
	bestOf := func(shape jointree.Shape) (best float64) {
		best = -1
		for _, kind := range strategy.Kinds {
			for _, procs := range []int{16, 32, 64} {
				r := measure(t, db, shape, kind, procs)
				if best < 0 || r.Time.Seconds() < best {
					best = r.Time.Seconds()
				}
			}
		}
		return best
	}
	if wb, ll := bestOf(jointree.WideBushy), bestOf(jointree.LeftLinear); wb >= ll {
		t.Errorf("best wide-bushy %.3fs not better than best left-linear %.3fs", wb, ll)
	}
}
