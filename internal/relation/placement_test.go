package relation

import (
	"sync"
	"testing"
)

// TestPlacementCache: a placement fragments each relation once per (relation,
// attribute, degree) and serves the same read-only fragments to every later
// caller; a nil placement fragments every time. The cache is byte-bounded: a
// fragmentation that would overflow it evicts what was cached before, and
// one larger than the bound is never cached. The views a cached
// fragmentation lends are cut once per size and cached with it, and go with
// it.
func TestPlacementCache(t *testing.T) {
	rel := func(name string, card int) *Relation {
		r := NewWithCap(name, 208, card)
		for i := 0; i < card; i++ {
			r.Append(Tuple{Unique1: int64(i), Unique2: int64(card - i), Check: uint64(i)})
		}
		return r
	}
	same := func(a, b []Batch) bool { return &a[0] == &b[0] }
	sameViews := func(a, b [][]Batch) bool { return &a[0][0] == &b[0][0] }
	resident := rel("resident", 1000)
	p := &Placement{}

	f1 := p.Fragments(resident, Unique1, 4)
	if !same(f1, p.Fragments(resident, Unique1, 4)) {
		t.Error("a relation was fragmented twice for one key")
	}
	if same(f1, p.Fragments(resident, Unique2, 4)) || same(f1, p.Fragments(resident, Unique1, 8)) {
		t.Error("attribute and degree must be part of the key")
	}
	want := FragmentBatches(resident, Unique1, 4)
	for i := range want {
		if want[i].Len() != f1[i].Len() {
			t.Fatalf("fragment %d holds %d tuples, want %d", i, f1[i].Len(), want[i].Len())
		}
	}
	if got, want := p.Bytes(), int64(3*1000*TupleWireBytes); got != want {
		t.Errorf("Bytes = %d, want %d (three fragmentations)", got, want)
	}
	v1 := p.Lend(resident, Unique1, f1, 64)
	if !sameViews(v1, p.Lend(resident, Unique1, f1, 64)) {
		t.Error("a cached fragmentation's views were cut twice for one size")
	}
	if sameViews(v1, p.Lend(resident, Unique1, f1, 32)) {
		t.Error("the view size must be part of the key")
	}
	v1 = p.Lend(resident, Unique1, f1, 64)
	for i := range f1 {
		n := 0
		for v := range v1[i] {
			if &v1[i][v].U1[0] != &f1[i].U1[n] || !v1[i][v].lent {
				t.Fatalf("view %d of fragment %d is not a lent view of row %d of the cached fragment", v, i, n)
			}
			n += v1[i][v].Len()
		}
		if n != f1[i].Len() {
			t.Fatalf("the views of fragment %d hold %d tuples, want %d", i, n, f1[i].Len())
		}
	}
	if own := FragmentBatches(resident, Unique1, 4); sameViews(v1, p.Lend(resident, Unique1, own, 64)) {
		t.Error("a fragmentation the cache does not hold was served the cached views")
	}

	var none *Placement
	if g := none.Fragments(resident, Unique1, 4); same(g, none.Fragments(resident, Unique1, 4)) || none.Bytes() != 0 {
		t.Error("a nil placement cached a fragmentation")
	} else if sameViews(none.Lend(resident, Unique1, g, 64), none.Lend(resident, Unique1, g, 64)) {
		t.Error("a nil placement cached views")
	}

	// A relation too big for what is left evicts what was cached; one too
	// big for the whole bound is never cached.
	big := rel("big", maxPlacedBytes/TupleWireBytes-1000)
	huge := rel("huge", maxPlacedBytes/TupleWireBytes+1)
	p.Fragments(big, Unique1, 2)
	if got, want := p.Bytes(), int64(big.Card()*TupleWireBytes); got != want {
		t.Errorf("Bytes after overflow = %d, want %d (only the newcomer)", got, want)
	}
	f2 := p.Fragments(resident, Unique1, 4)
	if same(f1, f2) {
		t.Error("an evicted fragmentation was served")
	}
	if v2 := p.Lend(resident, Unique1, f2, 64); sameViews(v1, v2) || !sameViews(v2, p.Lend(resident, Unique1, f2, 64)) {
		t.Error("views outlived the eviction of their fragmentation, or the new one caches none")
	}
	if p.Bytes() > maxPlacedBytes {
		t.Errorf("Bytes = %d exceeds the bound %d", p.Bytes(), maxPlacedBytes)
	}
	placed := p.Bytes()
	if f := p.Fragments(huge, Unique1, 2); p.Bytes() != placed || same(f, p.Fragments(huge, Unique1, 2)) {
		t.Error("a relation larger than the bound was cached")
	}
}

// TestPlacementConcurrent: callers that race on one key all get the one
// fragmentation the cache keeps, whoever fragmented first.
func TestPlacementConcurrent(t *testing.T) {
	r := NewWithCap("r", 208, 4000)
	for i := 0; i < 4000; i++ {
		r.Append(Tuple{Unique1: int64(i), Unique2: int64(i * 7), Check: uint64(i)})
	}
	p := &Placement{}
	const callers = 8
	got := make([][]Batch, callers)
	var wg sync.WaitGroup
	for i := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = p.Fragments(r, Unique2, 6)
		}()
	}
	wg.Wait()
	kept := p.Fragments(r, Unique2, 6)
	for i, f := range got {
		if &f[0] != &kept[0] {
			t.Errorf("caller %d got a fragmentation the cache does not keep", i)
		}
	}
	if want := int64(r.Card() * TupleWireBytes); p.Bytes() != want {
		t.Errorf("Bytes = %d after racing callers, want %d", p.Bytes(), want)
	}
}
