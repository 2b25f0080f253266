//go:build !pooldebug

package hashjoin

// recycled returns what a released table's memory goes into its pool as:
// the table itself. pool_pooldebug.go swaps in a detector for stale owners.
func recycled(t *Table) *Table { return t }

// releasedAgain is a second Release of a table still in its pool: a no-op.
func releasedAgain(*Table) {}
