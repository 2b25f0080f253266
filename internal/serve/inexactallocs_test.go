//go:build race || pooldebug

package serve

// exactAllocs reports a build in which allocation counts are exact. They are
// not under -race, whose sync.Pool (gob's encoder buffers among its users)
// drops a random share of what is put back, nor under -tags pooldebug,
// whose recycler moves a released table's memory into a fresh Table on
// every release.
const exactAllocs = false
