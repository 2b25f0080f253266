package testutil

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"multijoin/internal/atrest"
	"multijoin/internal/ivm"
	"multijoin/internal/jointree"
	"multijoin/internal/parallel"
	"multijoin/internal/relation"
)

// removeOne deletes one instance of tp from rel's multiset, reporting
// whether an instance existed — the sequential-reference mirror of the
// view network's unmatched-delete filtering.
func removeOne(rel *relation.Relation, tp relation.Tuple) bool {
	for i, have := range rel.Tuples {
		if have == tp {
			rel.Tuples[i] = rel.Tuples[len(rel.Tuples)-1]
			rel.Tuples = rel.Tuples[:len(rel.Tuples)-1]
			return true
		}
	}
	return false
}

// FuzzViewEquivalence is the view-maintenance differential oracle: for any
// generated scenario (every strategy's plan shape, uniform and skewed
// cardinalities, one to four processor slots or one per plan processor)
// and any generated delta script, the incrementally maintained view must
// equal a from-scratch recompute of the sequential reference over shadow
// base relations after every round, with the unmatched-delete count
// predicted exactly by the script's ghost deletes and the result size
// ApplyResult reports equal to the recompute's.
//
// Rows joins the network's tables, so it does not see the signed batches
// the network emits. In half the inputs (deltaSeed odd) the oracle
// therefore also subscribes a change stream and folds every round's
// changes into a multiset of its own, seeded from the initial Rows, which
// must equal the recompute too.
//
// One byte of the input (the low byte of seed^deltaSeed) also picks a
// cancellation point: bits 0–2 the round whose context is cancelled (none
// for 4–7), bits 3–7 how many times the canceller yields first (0: before
// Apply is called). The cancelled Apply either took effect, or failed and
// left the view exact without it, or tore the view down (ErrViewClosed) —
// it is never half-applied. After Close the goroutine count settles back
// to where it was before the view.
func FuzzViewEquivalence(f *testing.F) {
	for strat := int64(0); strat < 4; strat++ {
		for size := int64(0); size < 3; size++ {
			f.Add(int64(1995)+strat*31+size, strat+size, strat, size, strat*7+size)
		}
	}
	f.Add(int64(7), int64(3), int64(3), int64(2), int64(40)) // right-bushy FP skewed
	f.Add(int64(-1), int64(-2), int64(-3), int64(-4), int64(-5))
	f.Fuzz(func(t *testing.T, seed, shapeSel, stratSel, sizeSel, deltaSeed int64) {
		s, err := Generate(seed, shapeSel, stratSel, sizeSel)
		if err != nil {
			t.Fatalf("generator rejected (%d,%d,%d,%d): %v", seed, shapeSel, stratSel, sizeSel, err)
		}
		plan, err := s.Query.Plan()
		if err != nil {
			t.Fatalf("%s: Plan: %v", s.Desc, err)
		}
		db := s.Query.DB
		cut := byte(seed ^ deltaSeed)
		cutRound, yields := int(cut&7), int(cut>>3)
		baseline := runtime.NumGoroutine()
		run := parallel.Config{MaxProcs: mod(seed, 5), BatchTuples: s.BatchTuples}
		view, err := ivm.New(plan, db.Relation, run, ivm.Config{})
		if err != nil {
			t.Fatalf("%s: ivm.New: %v", s.Desc, err)
		}
		defer func() {
			view.Close()
			if err := atrest.Goroutines(baseline, 10*time.Second); err != nil {
				t.Errorf("%s: after Close: %v", s.Desc, err)
			}
		}()

		shadow := make([]*relation.Relation, db.NumRelations())
		for i := range shadow {
			r := db.Relation(i)
			cp := relation.NewWithCap(r.Name, r.TupleBytes, r.Card())
			cp.Append(r.Tuples...)
			shadow[i] = cp
		}
		// folded is the subscribed change stream's multiset (nil without
		// one).
		var stream *ivm.ChangeStream
		var folded map[relation.Tuple]int64
		// check compares the view, its result size card and the folded
		// change stream with the recompute; false means the view was torn
		// down.
		check := func(round, card int) bool {
			got, err := view.Rows()
			if errors.Is(err, ivm.ErrViewClosed) {
				return false
			}
			if err != nil {
				t.Fatalf("%s: round %d: Rows: %v", s.Desc, round, err)
			}
			want := jointree.Reference(s.Query.Tree, func(leaf int) *relation.Relation { return shadow[leaf] })
			if diff := relation.DiffMultiset(got, want); diff != "" {
				t.Fatalf("%s: deltaSeed=%d round %d: view differs from recompute: %s", s.Desc, deltaSeed, round, diff)
			}
			if card != want.Card() {
				t.Fatalf("%s: deltaSeed=%d round %d: result size %d, recompute has %d", s.Desc, deltaSeed, round, card, want.Card())
			}
			if folded == nil {
				return true
			}
			changed := relation.New("changes", want.TupleBytes)
			for tp, n := range folded {
				if n < 0 {
					t.Fatalf("%s: deltaSeed=%d round %d: change stream leaves %v at count %d", s.Desc, deltaSeed, round, tp, n)
				}
				for ; n > 0; n-- {
					changed.Append(tp)
				}
			}
			if diff := relation.DiffMultiset(changed, want); diff != "" {
				t.Fatalf("%s: deltaSeed=%d round %d: folded changes differ from recompute: %s", s.Desc, deltaSeed, round, diff)
			}
			return true
		}
		check(0, view.ResultCard())
		if deltaSeed&1 != 0 {
			stream = view.Changes()
			defer stream.Close()
			initial, err := view.Rows()
			if err != nil {
				t.Fatalf("%s: Rows: %v", s.Desc, err)
			}
			folded = make(map[relation.Tuple]int64, initial.Card())
			for _, tp := range initial.Tuples {
				folded[tp]++
			}
		}

		for r, round := range DeltaScript(db, deltaSeed, 4) {
			ctx, cancel := context.WithCancel(context.Background())
			cancelled := make(chan struct{})
			switch {
			case r != cutRound:
				close(cancelled)
			case yields == 0:
				cancel()
				close(cancelled)
			default:
				go func() {
					for i := 0; i < yields; i++ {
						runtime.Gosched()
					}
					cancel()
					close(cancelled)
				}()
			}
			res, err := view.Apply(ctx, round...)
			<-cancelled
			cancel()
			if err != nil {
				if r != cutRound || !errors.Is(err, context.Canceled) {
					t.Fatalf("%s: deltaSeed=%d round %d: Apply: %v", s.Desc, deltaSeed, r, err)
				}
				if !check(r+1, view.ResultCard()) {
					return // torn down mid-round: closed, not half-applied
				}
				continue // refused before injecting: exact without the round
			}
			// Mirror the round on the shadows with the view's own ordering
			// contract — all inserts first, then deletes, dropping misses.
			var ghosts int64
			for _, d := range round {
				shadow[d.Rel].Append(d.Insert...)
			}
			for _, d := range round {
				for _, tp := range d.Delete {
					if !removeOne(shadow[d.Rel], tp) {
						ghosts++
					}
				}
			}
			if res.Unmatched != ghosts {
				t.Fatalf("%s: deltaSeed=%d round %d: Unmatched = %d, script has %d ghost deletes",
					s.Desc, deltaSeed, r, res.Unmatched, ghosts)
			}
			for seen := 0; stream != nil && seen < res.Changes; seen++ {
				if !stream.Next() {
					t.Fatalf("%s: deltaSeed=%d round %d: change stream ended after %d of %d changes", s.Desc, deltaSeed, r, seen, res.Changes)
				}
				c := stream.Change()
				folded[c.Tuple] += int64(c.Sign)
			}
			if !check(r+1, res.ResultCard) {
				t.Fatalf("%s: deltaSeed=%d round %d: view closed after a successful Apply", s.Desc, deltaSeed, r)
			}
		}
	})
}
