//go:build pooldebug

package hashjoin

import (
	"strings"
	"testing"

	"multijoin/internal/relation"
)

// mustPanic runs f and fails unless it panics with a message containing
// want ("" accepts any panic).
func mustPanic(t *testing.T, what, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("%s did not panic", what)
		}
		if msg, _ := r.(string); !strings.Contains(msg, want) {
			t.Fatalf("%s panicked with %v, want a message containing %q", what, r, want)
		}
	}()
	f()
}

// TestReleasedTableFailsLoudly: built with -tags pooldebug, a released table
// is never handed out again, so a stale owner cannot alias the table its
// memory went to: inserting into it or looking a key up panics, and so
// does releasing it a second time. Its memory still recycles, in a fresh
// table.
func TestReleasedTableFailsLoudly(t *testing.T) {
	tp := relation.Tuple{Unique1: 7, Unique2: 7, Check: 7}
	for _, use := range []struct {
		name string
		f    func(*Table)
	}{
		{"Insert", func(tab *Table) { tab.Insert(tp) }},
		{"First", func(tab *Table) { tab.First(7) }},
		{"Delete", func(tab *Table) { tab.Delete(tp) }},
	} {
		tab := NewTableSized(relation.Unique1, 64)
		tab.Insert(tp)
		tab.Release()
		mustPanic(t, "use after Release: "+use.name, "", func() { use.f(tab) })
		mustPanic(t, "double Release", "double Release", tab.Release)
	}
	tab := NewTableSized(relation.Unique1, 64)
	head := &tab.head[0]
	tab.Release()
	for range 20 {
		next := NewTableSized(relation.Unique1, 64)
		if next == tab {
			t.Fatal("a released table was handed out again")
		}
		recycled := &next.head[0] == head
		next.Release()
		if recycled {
			return
		}
	}
	t.Log("the pool never handed the released memory back (race detector)")
}
