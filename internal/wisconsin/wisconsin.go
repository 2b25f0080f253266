// Package wisconsin generates the paper's test database: a chain of
// Wisconsin-benchmark relations [BDT83] built so that the 10-relation
// multi-join query of Section 4.1 behaves exactly as described there:
//
//   - every relation has the same cardinality N and 208-byte tuples with two
//     unique integer attributes;
//   - the relations are joined "one-by-one" on integer attributes, and after
//     each join the result is projected so that it is again a Wisconsin
//     relation of cardinality N;
//   - no correlation exists between the two attributes of one relation or
//     between attributes of different relations.
//
// Construction. For a chain of k relations we draw k+1 independent random
// permutations B_0 .. B_k of [0, N). Relation i (0-based) contains the N
// tuples {(Unique1 = B_i(j), Unique2 = B_{i+1}(j)) : j in [0, N)}: adjacent
// relations share a "boundary" permutation. The join of the chain span
// [lo, hi] then contains exactly the tuples {(B_lo(j), B_{hi+1}(j))} — a
// Wisconsin relation of cardinality N no matter how the span was
// parenthesized, which is the regular-workload property the paper's
// experiments rely on. Every binary join matches the lower span's Unique2
// against the higher span's Unique1 (the boundary both sides share) and is
// 1:1.
package wisconsin

import (
	"fmt"
	"math/rand"

	"multijoin/internal/relation"
)

// TupleBytes is the size of one Wisconsin tuple: thirteen 4-byte integer
// attributes (unique1, unique2, two, four, ten, twenty, onePercent,
// tenPercent, twentyPercent, fiftyPercent, unique3, evenOnePercent,
// oddOnePercent) and three 52-byte strings (stringu1, stringu2, string4).
const TupleBytes = 208

// Config describes a chain database.
type Config struct {
	Relations   int   // number of base relations in the chain (paper: 10)
	Cardinality int   // tuples per relation (paper: 5000 and 40000)
	Seed        int64 // RNG seed; same seed => identical database

	// Cards optionally gives every relation its own cardinality,
	// overriding Cardinality (and Relations, which must then match
	// len(Cards) or be zero). The paper's regular workload uses equal
	// cardinalities so that all join trees cost the same; variable
	// cardinalities create the non-regular, "real-life" workloads the
	// paper's closing section asks about, where the cost function truly
	// drives processor allocation. Between relations of different sizes
	// the join is no longer 1:1: every tuple of the lower relation matches
	// exactly one tuple of the higher relation, so the join of chain span
	// [lo, hi] has exactly Cards[lo] tuples regardless of tree shape.
	Cards []int
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if len(c.Cards) > 0 {
		if len(c.Cards) < 2 {
			return fmt.Errorf("wisconsin: need at least 2 relations, got %d", len(c.Cards))
		}
		if c.Relations != 0 && c.Relations != len(c.Cards) {
			return fmt.Errorf("wisconsin: Relations=%d contradicts len(Cards)=%d", c.Relations, len(c.Cards))
		}
		for i, n := range c.Cards {
			if n < 1 {
				return fmt.Errorf("wisconsin: non-positive cardinality %d for relation %d", n, i)
			}
		}
		return nil
	}
	if c.Relations < 2 {
		return fmt.Errorf("wisconsin: need at least 2 relations, got %d", c.Relations)
	}
	if c.Cardinality < 1 {
		return fmt.Errorf("wisconsin: need positive cardinality, got %d", c.Cardinality)
	}
	return nil
}

// cards returns the per-relation cardinalities implied by the config.
func (c Config) cards() []int {
	if len(c.Cards) > 0 {
		return c.Cards
	}
	out := make([]int, c.Relations)
	for i := range out {
		out[i] = c.Cardinality
	}
	return out
}

// Database is a generated chain of Wisconsin relations plus the pointer
// structure between them, kept so that expected query answers can be
// computed without running any join. The relations are generated once and
// never change, so their declustering over a join's processors is a
// property of the database, not of a query: the database owns their
// placement (Placement), and it dies with the database.
type Database struct {
	Config    Config
	Relations []*relation.Relation
	cards     []int
	targets   [][]int // tuple j of relation i matches tuple targets[i][j] of relation i+1; nil: tuple j
	placement relation.Placement
}

// Chain generates a chain database. Tuples are produced in row order; the
// per-tuple provenance checksum of base relation i, row j is BaseCheck(i, j).
//
// Relation i holds cards[i] tuples with Unique1 = B_i(j) (a permutation of
// [0, cards[i])) and Unique2 = B_{i+1}(targets[i][j]). For equal adjacent
// cardinalities the target mapping is the identity, making the join 1:1 (the
// paper's regular workload); otherwise targets are drawn uniformly, so every
// lower tuple matches exactly one higher tuple.
func Chain(cfg Config) (*Database, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	db := &Database{Config: cfg, cards: cfg.cards()}
	k := len(db.cards)
	// Boundary b sits between relations b-1 and b; its value domain is the
	// Unique1 domain of relation b (for b < k) and a fresh domain of the
	// last relation's size for the chain's outer edge b = k.
	boundaries := make([][]int64, k+1) // boundaries[b][j] = B_b(j)
	for b := 0; b <= k; b++ {
		size := db.cards[k-1]
		if b < k {
			size = db.cards[b]
		}
		boundaries[b] = permutation(rng, size)
	}
	db.targets = make([][]int, k)
	for i := 0; i < k; i++ {
		n := db.cards[i]
		next := db.cards[k-1]
		if i+1 < k {
			next = db.cards[i+1]
		}
		if n == next {
			continue // 1:1 regular workload: tuple j matches tuple j
		}
		db.targets[i] = make([]int, n)
		for j := 0; j < n; j++ {
			db.targets[i][j] = rng.Intn(next)
		}
	}
	db.Relations = make([]*relation.Relation, k)
	for i := 0; i < k; i++ {
		r := relation.New(fmt.Sprintf("R%d", i), TupleBytes)
		r.Tuples = make([]relation.Tuple, db.cards[i])
		for j := 0; j < db.cards[i]; j++ {
			r.Tuples[j] = relation.Tuple{
				Unique1: boundaries[i][j],
				Unique2: boundaries[i+1][db.target(i, j)],
				Check:   BaseCheck(i, j),
			}
		}
		db.Relations[i] = r
	}
	return db, nil
}

// target returns the tuple of relation i+1 that tuple j of relation i
// matches.
func (db *Database) target(i, j int) int {
	if t := db.targets[i]; t != nil {
		return t[j]
	}
	return j
}

// permutation returns a uniformly random permutation of [0, n) as int64s.
func permutation(rng *rand.Rand, n int) []int64 {
	p := make([]int64, n)
	for i := range p {
		p[i] = int64(i)
	}
	rng.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// BaseCheck is the provenance checksum of row j of base relation i.
func BaseCheck(rel, row int) uint64 {
	h := uint64(rel)*0x100000001b3 + uint64(row) + 0xcbf29ce484222325
	h ^= h >> 31
	h *= 0x9e3779b97f4a7c15
	h ^= h >> 29
	return h
}

// Placement returns the resident placement of the database's relations:
// every in-process run of a query on the database reads its scans'
// fragments and lent views from it instead of fragmenting per run.
func (db *Database) Placement() *relation.Placement { return &db.placement }

// Relation returns base relation i.
func (db *Database) Relation(i int) *relation.Relation { return db.Relations[i] }

// NumRelations returns the number of base relations.
func (db *Database) NumRelations() int { return len(db.Relations) }

// Cardinality returns the cardinality of the first relation — for the
// paper's regular workload (equal cardinalities) this is the cardinality of
// every relation and of every intermediate result.
func (db *Database) Cardinality() int { return db.cards[0] }

// Card returns the cardinality of relation i.
func (db *Database) Card(i int) int { return db.cards[i] }

// SpanCard returns the exact cardinality of the join of chain span
// [lo, hi]: every lower-span tuple matches exactly one higher-span tuple, so
// the result has Cards[lo] tuples for any tree shape. Strategies use this as
// their cost-function cardinality input.
func (db *Database) SpanCard(lo, hi int) float64 {
	if lo < 0 || lo >= len(db.cards) {
		return 0
	}
	return float64(db.cards[lo])
}

// ExpectedPairs returns the (Unique1, Unique2) pairs — with zero checksums —
// that the join of chain span [lo, hi] (inclusive, 0-based) must produce,
// computed by following the generator's pointer structure: tuple j of
// relation lo leads to one tuple of relation hi, whose Unique2 it pairs
// with its own Unique1. Checksums depend
// on the join tree shape and are verified separately against a sequential
// reference execution.
func (db *Database) ExpectedPairs(lo, hi int) (*relation.Relation, error) {
	if lo < 0 || hi >= len(db.Relations) || lo > hi {
		return nil, fmt.Errorf("wisconsin: invalid span [%d,%d] of %d relations", lo, hi, len(db.Relations))
	}
	out := relation.New(fmt.Sprintf("expected[%d,%d]", lo, hi), TupleBytes)
	n := db.cards[lo]
	out.Tuples = make([]relation.Tuple, n)
	for j := 0; j < n; j++ {
		row := j
		for i := lo; i < hi; i++ {
			row = db.target(i, row)
		}
		out.Tuples[j] = relation.Tuple{
			Unique1: db.Relations[lo].Tuples[j].Unique1,
			Unique2: db.Relations[hi].Tuples[row].Unique2,
		}
	}
	return out, nil
}

// SamePairs reports whether got contains exactly the (Unique1, Unique2)
// multiset of the expected span result, ignoring checksums.
func (db *Database) SamePairs(got *relation.Relation, lo, hi int) (bool, error) {
	want, err := db.ExpectedPairs(lo, hi)
	if err != nil {
		return false, err
	}
	g := got.Clone()
	for i := range g.Tuples {
		g.Tuples[i].Check = 0
	}
	return relation.EqualMultiset(g, want), nil
}
