//go:build race || pooldebug

package core

// exactAllocs reports a build in which allocation counts are exact. They are
// not under -race, whose sync.Pool drops a random share of what is put back,
// nor under -tags pooldebug, whose recycler moves a released table's memory
// into a fresh Table on every release: recycled memory is not always there
// to reuse without allocating.
const exactAllocs = false
