package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"multijoin"
	"multijoin/internal/relation"
	"multijoin/internal/serve"
)

// Shape of the view_refresh workload: every round carries one delta per
// base relation, each deltaTuples fresh inserts plus the previous round's
// inserts backed out, so the view's cardinality stays pinned.
const (
	viewCard    = 40000
	viewProcs   = 2 * relations
	deltaTuples = 64
)

// Span names of the view workload, outermost first.
const (
	spanViewApply   = "serve.view_apply"
	spanServerApply = "server.apply_wall"
	spanIvmApply    = "ivm.apply"
)

type viewWorkload struct {
	db  *multijoin.Database
	eng *multijoin.Engine
	srv *serve.Server
	cl  *serve.Client
	vh  *serve.ViewHandle
	// twin is an in-process view over the same engine that receives the
	// identical deltas: its Apply is the ivm layer without server or wire
	// (traced runs only).
	twin       *multijoin.View
	twinSynced bool
	si         setupInfo

	rng *rand.Rand
	// rows is a shuffled list of base row numbers and cursor the next unused
	// one; see nextDeltas.
	rows   []int
	cursor int
	// prev holds the last round's inserts per relation: the next round's
	// deletes.
	prev   [relations][]relation.Tuple
	deltas []multijoin.ViewDelta
}

func newViewWorkload(seed int64, traced bool) (_ *viewWorkload, err error) {
	w := &viewWorkload{rng: rand.New(rand.NewSource(seed))}
	defer func() {
		if err != nil {
			w.close()
		}
	}()
	t0 := time.Now()
	w.db, err = multijoin.NewDatabase(relations, viewCard, seed)
	if err != nil {
		return nil, err
	}
	w.si.generateMS = ms(time.Since(t0))
	w.si.card = viewCard
	w.rows = w.rng.Perm(viewCard)
	tree, err := multijoin.BuildTree(multijoin.LeftLinear, relations)
	if err != nil {
		return nil, err
	}
	q := multijoin.Query{DB: w.db, Tree: tree, Strategy: multijoin.FP, Procs: viewProcs}
	plan, err := q.Plan()
	if err != nil {
		return nil, err
	}
	w.si.plans = append(w.si.plans, plan)
	w.si.queries = append(w.si.queries, q)
	if n := multijoin.Reference(w.db, tree).Card(); n != viewCard {
		return nil, fmt.Errorf("reference result has %d tuples, want %d", n, viewCard)
	}

	w.eng, err = multijoin.Open(w.db, multijoin.WithEngineRuntime("parallel"))
	if err != nil {
		return nil, err
	}
	w.si.engine = w.eng
	w.srv = serve.NewServer(w.eng, serve.Config{})
	addr, err := w.srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	w.cl, err = serve.Dial(addr)
	if err != nil {
		return nil, err
	}
	t0 = time.Now()
	w.vh, err = w.cl.CreateView(serve.ViewSpec{Shape: multijoin.LeftLinear.String(), Procs: viewProcs})
	if err != nil {
		return nil, err
	}
	w.si.createMS = ms(time.Since(t0))
	if w.vh.Rows != viewCard {
		return nil, fmt.Errorf("view populated with %d rows, want %d", w.vh.Rows, viewCard)
	}
	if traced {
		w.twin, err = w.eng.CreateView(context.Background(), q)
		if err != nil {
			return nil, err
		}
	}
	return w, nil
}

func (w *viewWorkload) info() *setupInfo { return &w.si }

func (w *viewWorkload) close() {
	if w.twin != nil {
		w.twin.Close()
	}
	if w.cl != nil {
		w.cl.Close()
	}
	switch {
	case w.srv != nil:
		w.srv.Close() // closes the engine it owns
	case w.eng != nil:
		w.eng.Close()
	}
}

// nextDeltas builds the next round. Base row j of every relation forms
// result chain j, so an insert into relation i that takes its Unique1 from
// row j and its Unique2 from row k joins exactly one resident tuple on
// either side and adds exactly one result row: prefix j spliced to suffix
// k. Rows are drawn without replacement from a shuffled list, so no two
// inserts of this round or the last (which is backed out only after this
// round's inserts went in) share a chain. That makes the cardinality and
// change count of every round exact.
func (w *viewWorkload) nextDeltas() []multijoin.ViewDelta {
	const rowsPerRound = 2 * relations * deltaTuples
	if w.cursor+rowsPerRound > len(w.rows) {
		w.cursor = 0 // rows of 30 rounds ago are long backed out
	}
	w.deltas = w.deltas[:0]
	for rel := 0; rel < relations; rel++ {
		base := w.db.Relation(rel).Tuples
		ins := make([]relation.Tuple, deltaTuples)
		for i := range ins {
			j, k := w.rows[w.cursor], w.rows[w.cursor+1]
			w.cursor += 2
			ins[i] = relation.Tuple{Unique1: base[j].Unique1, Unique2: base[k].Unique2, Check: w.rng.Uint64()}
		}
		w.deltas = append(w.deltas, multijoin.ViewDelta{Rel: rel, Insert: ins, Delete: w.prev[rel]})
		w.prev[rel] = ins
	}
	return w.deltas
}

// checkRound holds one acknowledged round against what the deltas must
// have done.
func checkRound(st serve.ApplyStats, inserted, deleted int, wantRows int64) error {
	switch {
	case st.Unmatched != 0:
		return fmt.Errorf("%d deletes matched nothing", st.Unmatched)
	case st.Inserted != int64(inserted) || st.Deleted != int64(deleted):
		return fmt.Errorf("server applied %d inserts and %d deletes, sent %d and %d", st.Inserted, st.Deleted, inserted, deleted)
	case st.Changes != int64(inserted+deleted):
		return fmt.Errorf("%d result changes, want %d", st.Changes, inserted+deleted)
	case st.Rows != wantRows:
		return fmt.Errorf("view has %d rows, want %d", st.Rows, wantRows)
	}
	return nil
}

func countDeltas(deltas []multijoin.ViewDelta) (inserted, deleted int) {
	for _, d := range deltas {
		inserted += len(d.Insert)
		deleted += len(d.Delete)
	}
	return inserted, deleted
}

func (w *viewWorkload) apply(deltas []multijoin.ViewDelta) (serve.ApplyStats, time.Duration, time.Time, error) {
	inserted, deleted := countDeltas(deltas)
	t0 := time.Now()
	st, err := w.vh.Apply(deltas...)
	lat := time.Since(t0)
	if err != nil {
		return st, lat, t0, err
	}
	return st, lat, t0, checkRound(st, inserted, deleted, viewCard+int64(inserted))
}

func (w *viewWorkload) op(int) (time.Duration, error) {
	_, lat, _, err := w.apply(w.nextDeltas())
	return lat, err
}

func (w *viewWorkload) tracedOp(_ int, t *opTrace, rec *layerRec) error {
	if !w.twinSynced {
		// The twin missed the rounds run so far; all it needs of them is
		// what is still outstanding.
		var catchUp []multijoin.ViewDelta
		for rel, ts := range w.prev {
			catchUp = append(catchUp, multijoin.ViewDelta{Rel: rel, Insert: ts})
		}
		if _, err := w.twin.Apply(context.Background(), catchUp...); err != nil {
			return fmt.Errorf("twin view: %w", err)
		}
		w.twinSynced = true
	}
	deltas := w.nextDeltas()
	st, lat, t0, err := w.apply(deltas)
	if err != nil {
		return err
	}
	root := t.addAt(spanViewApply, 0, t0, lat)
	srvSpan := t.addPeeled(spanServerApply, root, 0, st.Wall)
	rec.add("lat.root_ms", ms(lat))
	rec.add("serve.apply_self_us", us(lat-st.Wall))

	t1 := time.Now()
	res, err := w.twin.Apply(context.Background(), deltas...)
	d := time.Since(t1)
	if err != nil {
		return fmt.Errorf("twin view: %w", err)
	}
	if res.Unmatched != 0 || int64(res.ResultCard) != st.Rows {
		return fmt.Errorf("twin view: %d unmatched, %d rows; served view has %d rows", res.Unmatched, res.ResultCard, st.Rows)
	}
	t.addPeeled(spanIvmApply, srvSpan, 0, d)
	rec.add("ivm.apply_us", us(d))
	rec.add("ivm.delta_tuples", float64(st.Inserted+st.Deleted))
	rec.add("ivm.changes", float64(st.Changes))
	rec.add("ivm.resident_mb", float64(w.twin.Resident())/(1<<20))
	return nil
}

// finish backs out every outstanding insert: the view must be the base
// join again, with nothing unmatched.
func (w *viewWorkload) finish() error {
	var deltas []multijoin.ViewDelta
	for rel, ts := range w.prev {
		if len(ts) > 0 {
			deltas = append(deltas, multijoin.ViewDelta{Rel: rel, Delete: ts})
		}
		w.prev[rel] = nil
	}
	if len(deltas) == 0 {
		return nil
	}
	_, deleted := countDeltas(deltas)
	st, err := w.vh.Apply(deltas...)
	if err != nil {
		return err
	}
	if err := checkRound(st, 0, deleted, viewCard); err != nil {
		return fmt.Errorf("final round: %w", err)
	}
	if w.twinSynced {
		res, err := w.twin.Apply(context.Background(), deltas...)
		if err != nil {
			return fmt.Errorf("twin view, final round: %w", err)
		}
		if res.Unmatched != 0 || res.ResultCard != viewCard {
			return fmt.Errorf("twin view, final round: %d unmatched, %d rows", res.Unmatched, res.ResultCard)
		}
	}
	return nil
}
