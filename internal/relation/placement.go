package relation

import "sync"

// maxPlacedBytes bounds what one Placement caches. A fragmentation that would
// overflow it evicts everything cached before; one larger than the bound is
// never cached.
const maxPlacedBytes = 32 << 20

// Placement is the resident placement of a set of relations that never
// change — a generated database's: their fragmentations (FragmentBatches),
// cached by relation identity, fragmentation attribute and degree, and the
// views last lent from each (Batch.Lend). Every run that reads the
// relations asks it instead of fragmenting them again, so a run of an
// already placed (relation, attribute, degree) copies nothing. The cache is
// byte-bounded and lives as long as its owner: nothing outside it refers to
// it. A nil *Placement caches nothing: it fragments and cuts per call.
// Fragments and views are read-only and shared by every run at once; all
// methods are safe for concurrent use.
type Placement struct {
	mu     sync.Mutex
	placed map[placementKey]*placed
	bytes  int64
}

// placementKey identifies one fragmentation of a relation.
type placementKey struct {
	rel    *Relation
	attr   Attr
	degree int
}

// placed is one cached fragmentation and the views last lent from it.
type placed struct {
	frags []Batch
	views [][]Batch // cut at size tuples
	size  int
}

// Bytes returns the size of the cached fragmentations.
func (p *Placement) Bytes() int64 {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.bytes
}

// Fragments returns FragmentBatches(rel, attr, degree) through the cache.
// Two callers that miss on the same key both fragment and the first insert
// stays: fragments are read-only and equal.
func (p *Placement) Fragments(rel *Relation, attr Attr, degree int) []Batch {
	if p == nil {
		return FragmentBatches(rel, attr, degree)
	}
	key := placementKey{rel, attr, degree}
	p.mu.Lock()
	e := p.placed[key]
	p.mu.Unlock()
	if e != nil {
		return e.frags
	}
	frags := FragmentBatches(rel, attr, degree)
	bytes := int64(rel.Card()) * TupleWireBytes
	if bytes > maxPlacedBytes {
		return frags
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if e := p.placed[key]; e != nil {
		return e.frags
	}
	if p.placed == nil || p.bytes+bytes > maxPlacedBytes {
		p.placed, p.bytes = make(map[placementKey]*placed), 0
	}
	p.placed[key] = &placed{frags: frags}
	p.bytes += bytes
	return frags
}

// Lend cuts frags, a fragmentation of rel on attr, into lent views of size
// tuples, one list per fragment (Batch.Lend). A cached fragmentation keeps
// the views cut last — one size per fragmentation unless runs ask for
// different batch sizes — so they go when it is evicted; any other
// fragmentation is cut per call.
func (p *Placement) Lend(rel *Relation, attr Attr, frags []Batch, size int) [][]Batch {
	var e *placed
	if p != nil && len(frags) > 0 {
		p.mu.Lock()
		defer p.mu.Unlock()
		if e = p.placed[placementKey{rel, attr, len(frags)}]; e != nil && &e.frags[0] != &frags[0] {
			e = nil
		}
	}
	if e != nil && e.size == size {
		return e.views
	}
	views := make([][]Batch, len(frags))
	for i := range frags {
		views[i] = frags[i].Lend(size)
	}
	if e != nil {
		e.views, e.size = views, size
	}
	return views
}
