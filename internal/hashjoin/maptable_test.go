package hashjoin

import "multijoin/internal/relation"

// MapTable is the retired map[int64][]Tuple hash-table implementation,
// kept as the reference oracle for differential tests of Table: simple,
// obviously correct, and allocation-heavy (one map entry plus one slice per
// distinct key). Production code uses Table.
type MapTable struct {
	attr relation.Attr
	m    map[int64][]relation.Tuple
	n    int
}

// NewMapTable returns an empty reference table keyed on the given attribute.
func NewMapTable(attr relation.Attr) *MapTable {
	return &MapTable{attr: attr, m: make(map[int64][]relation.Tuple)}
}

// Insert adds a tuple.
func (t *MapTable) Insert(tp relation.Tuple) {
	k := tp.Get(t.attr)
	t.m[k] = append(t.m[k], tp)
	t.n++
}

// Matches returns the tuples whose key attribute equals k (nil if none).
func (t *MapTable) Matches(k int64) []relation.Tuple { return t.m[k] }

// Len returns the number of inserted tuples.
func (t *MapTable) Len() int { return t.n }

// Attr returns the key attribute.
func (t *MapTable) Attr() relation.Attr { return t.attr }

// MapJoin joins two materialized relations the scalar way, through a
// MapTable over the build operand: the oracle the batch state machine that
// runs both join algorithms is checked against.
func MapJoin(build, probe *relation.Relation, spec Spec) *relation.Relation {
	ref := NewMapTable(spec.BuildAttr())
	for _, tp := range build.Tuples {
		ref.Insert(tp)
	}
	out := relation.New("oracle", build.TupleBytes)
	for _, tp := range probe.Tuples {
		for _, m := range ref.Matches(tp.Get(spec.ProbeAttr())) {
			out.Append(spec.Result(m, tp))
		}
	}
	return out
}
