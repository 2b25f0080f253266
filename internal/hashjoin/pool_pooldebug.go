//go:build pooldebug

package hashjoin

import "fmt"

// recycled (built with -tags pooldebug) moves a released table's memory into
// a fresh Table for the pool and leaves the released one with nil slices,
// never to be handed out again: a stale owner's insert or lookup panics on
// the empty slot array instead of reading, or writing, whichever process's
// table the memory went to next.
func recycled(t *Table) *Table {
	fresh := *t
	t.keys, t.head, t.u1, t.u2, t.check, t.next, t.heads = nil, nil, nil, nil, nil, nil, nil
	return &fresh
}

// releasedAgain panics: a second Release is a stale owner's.
func releasedAgain(t *Table) {
	panic(fmt.Sprintf("hashjoin: pooldebug: double Release of table %p", t))
}
