//go:build race

package operator

// raceEnabled reports a -race build, whose sync.Pool drops a random share of
// what is put back: recycled tables are not always there to reuse, so
// allocation counts are not exact.
const raceEnabled = true
