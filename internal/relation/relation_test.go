package relation

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAttrString(t *testing.T) {
	if Unique1.String() != "unique1" || Unique2.String() != "unique2" {
		t.Errorf("attr names: got %q, %q", Unique1, Unique2)
	}
	if Attr(9).String() != "Attr(9)" {
		t.Errorf("unknown attr: got %q", Attr(9))
	}
}

func TestTupleGet(t *testing.T) {
	tp := Tuple{Unique1: 7, Unique2: 11}
	if tp.Get(Unique1) != 7 {
		t.Errorf("Get(Unique1) = %d, want 7", tp.Get(Unique1))
	}
	if tp.Get(Unique2) != 11 {
		t.Errorf("Get(Unique2) = %d, want 11", tp.Get(Unique2))
	}
}

func TestCombineChecksAsymmetric(t *testing.T) {
	a, b := uint64(123456), uint64(654321)
	if CombineChecks(a, b) == CombineChecks(b, a) {
		t.Error("CombineChecks must distinguish operand order")
	}
	if CombineChecks(a, b) == CombineChecks(a, b+1) {
		t.Error("CombineChecks must depend on the right operand")
	}
}

func TestCombineChecksCollisionResistance(t *testing.T) {
	// A light birthday check over many combinations.
	seen := make(map[uint64]bool)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		h := CombineChecks(rng.Uint64(), rng.Uint64())
		if seen[h] {
			t.Fatalf("collision after %d combinations", i)
		}
		seen[h] = true
	}
}

func TestRelationBasics(t *testing.T) {
	r := New("R", 208)
	if r.Card() != 0 || r.Bytes() != 0 {
		t.Errorf("empty relation: card=%d bytes=%d", r.Card(), r.Bytes())
	}
	r.Append(Tuple{Unique1: 1}, Tuple{Unique1: 2})
	if r.Card() != 2 {
		t.Errorf("card = %d, want 2", r.Card())
	}
	if r.Bytes() != 416 {
		t.Errorf("bytes = %d, want 416", r.Bytes())
	}
	if got := r.String(); got != "R[2 tuples x 208B]" {
		t.Errorf("String() = %q", got)
	}
}

func TestCloneIsDeep(t *testing.T) {
	r := New("R", 208)
	r.Append(Tuple{Unique1: 1})
	c := r.Clone()
	c.Tuples[0].Unique1 = 99
	if r.Tuples[0].Unique1 != 1 {
		t.Error("Clone shares tuple storage with original")
	}
}

func TestHashKeyRange(t *testing.T) {
	f := func(v int64, n uint8) bool {
		buckets := int(n%64) + 1
		h := HashKey(v, buckets)
		return h >= 0 && h < buckets
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHashKeyDeterministic(t *testing.T) {
	for _, v := range []int64{0, 1, -5, 1 << 40} {
		if HashKey(v, 17) != HashKey(v, 17) {
			t.Errorf("HashKey(%d, 17) not deterministic", v)
		}
	}
	if HashKey(12345, 1) != 0 {
		t.Error("single bucket must map everything to 0")
	}
	if HashKey(12345, 0) != 0 {
		t.Error("degenerate bucket count must map to 0")
	}
}

// TestBucketerMatchesHashKey pins the Bucketer's reciprocal fix-up to the
// divide it replaces: for every value and bucket count — powers of two,
// primes, huge n, degenerate n — Bucket must equal HashKey bit for bit,
// or co-partitioned operands would silently disagree.
func TestBucketerMatchesHashKey(t *testing.T) {
	f := func(v int64, nRaw uint32) bool {
		n := int(nRaw % 100000)
		return NewBucketer(n).Bucket(v) == HashKey(v, n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
	for _, n := range []int{0, 1, 2, 3, 7, 8, 16, 64, 169, 1 << 20, 1<<31 - 1} {
		bk := NewBucketer(n)
		for _, v := range []int64{0, 1, -1, 12345, -12345, 1 << 62, -1 << 62, 1<<63 - 1, -1 << 63} {
			if got, want := bk.Bucket(v), HashKey(v, n); got != want {
				t.Fatalf("Bucket(%d) over %d buckets = %d, HashKey = %d", v, n, got, want)
			}
		}
	}
}

func TestHashKeySpread(t *testing.T) {
	// Sequential keys must spread reasonably evenly over buckets.
	const n, buckets = 10000, 16
	counts := make([]int, buckets)
	for v := int64(0); v < n; v++ {
		counts[HashKey(v, buckets)]++
	}
	want := n / buckets
	for b, c := range counts {
		if c < want/2 || c > want*2 {
			t.Errorf("bucket %d holds %d of %d tuples (expected about %d)", b, c, n, want)
		}
	}
}

// merged gathers columnar fragments back into one relation.
func merged(frags []Batch) *Relation {
	m := New("m", 208)
	for i := range frags {
		frags[i].AppendTo(m)
	}
	return m
}

func TestFragmentPartitions(t *testing.T) {
	r := New("R", 208)
	for i := int64(0); i < 1000; i++ {
		r.Append(Tuple{Unique1: i, Unique2: 999 - i, Check: uint64(i)})
	}
	for _, attr := range []Attr{Unique1, Unique2} {
		for _, n := range []int{1, 3, 7} {
			frags := FragmentBatches(r, attr, n)
			if len(frags) != n {
				t.Fatalf("FragmentBatches produced %d fragments, want %d", len(frags), n)
			}
			bk := NewBucketer(n)
			total := 0
			for i := range frags {
				total += frags[i].Len()
				for _, tp := range frags[i].Tuples() {
					if bk.Bucket(tp.Get(attr)) != i || HashKey(tp.Get(attr), n) != i {
						t.Fatalf("tuple %+v landed in wrong fragment %d", tp, i)
					}
				}
			}
			if total != r.Card() {
				t.Errorf("fragments hold %d tuples, want %d", total, r.Card())
			}
			if !EqualMultiset(merged(frags), r) {
				t.Error("merge of fragments differs from original")
			}
		}
	}
}

func TestFragmentDegenerateCount(t *testing.T) {
	r := New("R", 208)
	r.Append(Tuple{Unique1: 1})
	for _, n := range []int{0, -3} {
		frags := FragmentBatches(r, Unique1, n)
		if len(frags) != 1 || frags[0].Len() != 1 {
			t.Errorf("FragmentBatches with n=%d should clamp to 1 fragment, got %d", n, len(frags))
		}
	}
}

// TestFragmentRoundTrip is the property-based version: fragmenting and
// merging any relation yields the same multiset.
func TestFragmentRoundTrip(t *testing.T) {
	f := func(keys []int64, n uint8) bool {
		r := New("R", 208)
		for i, k := range keys {
			r.Append(Tuple{Unique1: k, Unique2: int64(i), Check: uint64(i)})
		}
		return EqualMultiset(merged(FragmentBatches(r, Unique1, int(n%8)+1)), r)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestEqualMultiset(t *testing.T) {
	a := New("a", 208)
	b := New("b", 208)
	a.Append(Tuple{Unique1: 1}, Tuple{Unique1: 2}, Tuple{Unique1: 2})
	b.Append(Tuple{Unique1: 2}, Tuple{Unique1: 1}, Tuple{Unique1: 2})
	if !EqualMultiset(a, b) {
		t.Error("order must not matter")
	}
	b.Append(Tuple{Unique1: 3})
	if EqualMultiset(a, b) {
		t.Error("different cardinalities must differ")
	}
	c := New("c", 208)
	c.Append(Tuple{Unique1: 1}, Tuple{Unique1: 1}, Tuple{Unique1: 2})
	if EqualMultiset(a, c) {
		t.Error("multiplicities must matter")
	}
}

func TestDiffMultiset(t *testing.T) {
	a := New("a", 208)
	b := New("b", 208)
	a.Append(Tuple{Unique1: 1})
	b.Append(Tuple{Unique1: 1})
	if d := DiffMultiset(a, b); d != "" {
		t.Errorf("equal relations diff = %q", d)
	}
	b.Tuples[0].Unique2 = 5
	if d := DiffMultiset(a, b); d == "" {
		t.Error("differing relations must produce a diff")
	}
	b.Append(Tuple{})
	if d := DiffMultiset(a, b); d == "" {
		t.Error("cardinality mismatch must produce a diff")
	}
}
