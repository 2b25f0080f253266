//go:build race

package hashjoin

// raceEnabled reports a -race build, whose sync.Pool drops a random share of
// what is put back: recycled table memory is not always there to reuse, so
// allocation counts are not exact.
const raceEnabled = true
