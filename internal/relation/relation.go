// Package relation provides the tuple and relation substrate used by the
// multi-join reproduction: Wisconsin-style tuples, relations, hash
// fragmentation over simulated processors, and multiset comparison helpers.
//
// The paper's workload consists of Wisconsin relations [BDT83]: 208-byte
// tuples with two unique integer attributes and filler attributes. Only the
// two unique integers influence query results; the filler bytes matter only
// for cost accounting. Tuples here therefore carry the two join-relevant
// integers plus a 64-bit provenance checksum standing in for the payload:
// the checksum is combined deterministically as tuples flow through joins,
// so any lost, duplicated, or corrupted tuple is detectable in tests, while
// memory stays proportional to what the experiments need. The declared
// TupleBytes of a relation (208 for Wisconsin) drives the cost model.
package relation

import (
	"fmt"
	"math/bits"
	"sort"
)

// Attr selects one of the two join-relevant integer attributes of a tuple.
type Attr int

const (
	// Unique1 is the first unique integer attribute ("unique1" in the
	// Wisconsin benchmark); the paper joins relations on this attribute.
	Unique1 Attr = iota
	// Unique2 is the second unique integer attribute ("unique2"); after each
	// join the result is projected so that unique2 becomes the join
	// attribute of the next join.
	Unique2
)

// String returns the Wisconsin attribute name.
func (a Attr) String() string {
	switch a {
	case Unique1:
		return "unique1"
	case Unique2:
		return "unique2"
	default:
		return fmt.Sprintf("Attr(%d)", int(a))
	}
}

// Tuple is a Wisconsin-style tuple reduced to the attributes that influence
// query results. Check is a provenance checksum standing in for the ~200
// payload bytes: joins combine the checksums of their operand tuples, so the
// final relation's multiset of (Unique1, Unique2, Check) triples identifies
// exactly which base tuples were combined.
type Tuple struct {
	Unique1 int64
	Unique2 int64
	Check   uint64
}

// Get returns the value of the selected attribute.
func (t Tuple) Get(a Attr) int64 {
	if a == Unique1 {
		return t.Unique1
	}
	return t.Unique2
}

// CombineChecks merges two provenance checksums into the checksum of a join
// result tuple. The combination is asymmetric (left vs right operand), so
// tests can detect accidentally swapped operands, and it is collision
// resistant enough for multiset comparison of experiment-sized relations.
func CombineChecks(left, right uint64) uint64 {
	const m1 = 0x9e3779b97f4a7c15
	const m2 = 0xc2b2ae3d27d4eb4f
	h := left*m1 + right*m2 + 0x165667b19e3779f9
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return h
}

// Relation is a named multiset of tuples together with the declared on-disk
// width of one tuple in bytes (208 for Wisconsin relations). The width is
// used by the cost model only; it does not change in-memory representation.
type Relation struct {
	Name       string
	TupleBytes int
	Tuples     []Tuple
}

// New returns an empty relation with the given name and tuple width.
func New(name string, tupleBytes int) *Relation {
	return &Relation{Name: name, TupleBytes: tupleBytes}
}

// NewWithCap returns an empty relation with capacity preallocated for
// capTuples tuples — for collectors and fragmenters whose cardinality is
// known up front, so the tuple slice never regrows.
func NewWithCap(name string, tupleBytes, capTuples int) *Relation {
	r := &Relation{Name: name, TupleBytes: tupleBytes}
	if capTuples > 0 {
		r.Tuples = make([]Tuple, 0, capTuples)
	}
	return r
}

// Card returns the cardinality (number of tuples).
func (r *Relation) Card() int { return len(r.Tuples) }

// Bytes returns the total declared size of the relation in bytes.
func (r *Relation) Bytes() int { return len(r.Tuples) * r.TupleBytes }

// Append adds tuples to the relation.
func (r *Relation) Append(ts ...Tuple) { r.Tuples = append(r.Tuples, ts...) }

// Clone returns a deep copy of the relation.
func (r *Relation) Clone() *Relation {
	c := &Relation{Name: r.Name, TupleBytes: r.TupleBytes}
	c.Tuples = append([]Tuple(nil), r.Tuples...)
	return c
}

// String summarizes the relation.
func (r *Relation) String() string {
	return fmt.Sprintf("%s[%d tuples x %dB]", r.Name, len(r.Tuples), r.TupleBytes)
}

// HashKey hashes an attribute value into one of n buckets. All components
// that partition data (fragmentation, redistribution, join hash tables) use
// this single function so that co-partitioned operands stay aligned. Loops
// that bucket many values against the same n use a Bucketer, which produces
// bit-identical results without the per-value divide.
func HashKey(v int64, n int) int {
	if n <= 1 {
		return 0
	}
	h := uint64(v) * 0x9e3779b97f4a7c15
	h ^= h >> 32
	return int(h % uint64(n))
}

// Bucketer maps attribute values onto a fixed number of buckets, exactly
// like HashKey(v, n) for every input, but with the 64-bit divide replaced
// by a multiply-high against a precomputed reciprocal plus one conditional
// fix-up — the divide is the dominant cost of the per-tuple partitioning
// loops (fragmentation, redistribution routing, Grace partitioning).
type Bucketer struct {
	n   uint64
	rec uint64 // floor((2^64-1)/n)
}

// NewBucketer returns a Bucketer over n buckets (n < 1 behaves like 1, as
// in HashKey).
func NewBucketer(n int) Bucketer {
	if n < 1 {
		n = 1
	}
	return Bucketer{n: uint64(n), rec: ^uint64(0) / uint64(n)}
}

// Bucket returns HashKey(v, n).
//
// Why the fix-up is exact: rec = floor((2^64-1)/n) lies in
// [2^64/n - 1, 2^64/n], so q = floor(h*rec / 2^64) is either floor(h/n) or
// floor(h/n)-1; r = h - q*n is therefore h mod n, possibly overshot by
// exactly one n, which the single conditional subtraction removes.
func (b Bucketer) Bucket(v int64) int {
	if b.n == 1 {
		return 0
	}
	h := uint64(v) * 0x9e3779b97f4a7c15
	h ^= h >> 32
	q, _ := bits.Mul64(h, b.rec)
	r := h - q*b.n
	if r >= b.n {
		r -= b.n
	}
	return int(r)
}

// PerFragmentCap returns the capacity to preallocate for one of n hash
// fragments of card tuples: the mean plus a small slack, since hash
// partitioning balances fragments closely but not perfectly. Both runtimes
// also size per-process hash tables with it, so the sizing policy cannot
// drift between them.
func PerFragmentCap(card, n int) int {
	return card/n + card/(8*n) + 8
}

// sortTuples orders tuples canonically for multiset comparison.
func sortTuples(ts []Tuple) {
	sort.Slice(ts, func(i, j int) bool {
		a, b := ts[i], ts[j]
		if a.Unique1 != b.Unique1 {
			return a.Unique1 < b.Unique1
		}
		if a.Unique2 != b.Unique2 {
			return a.Unique2 < b.Unique2
		}
		return a.Check < b.Check
	})
}

// EqualMultiset reports whether two relations contain the same multiset of
// tuples, ignoring order and name.
func EqualMultiset(a, b *Relation) bool {
	if a.Card() != b.Card() {
		return false
	}
	as := append([]Tuple(nil), a.Tuples...)
	bs := append([]Tuple(nil), b.Tuples...)
	sortTuples(as)
	sortTuples(bs)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

// DiffMultiset returns a short human-readable description of the first
// difference between two relations viewed as multisets, or "" if equal.
// Intended for test failure messages.
func DiffMultiset(a, b *Relation) string {
	if a.Card() != b.Card() {
		return fmt.Sprintf("cardinality %d vs %d", a.Card(), b.Card())
	}
	as := append([]Tuple(nil), a.Tuples...)
	bs := append([]Tuple(nil), b.Tuples...)
	sortTuples(as)
	sortTuples(bs)
	for i := range as {
		if as[i] != bs[i] {
			return fmt.Sprintf("tuple %d: %+v vs %+v", i, as[i], bs[i])
		}
	}
	return ""
}
