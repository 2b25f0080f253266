//go:build race

package relation

// raceEnabled reports a -race build, whose sync.Pool drops a random share of
// what is put into it: allocation counts that rely on recycled memory do not
// hold there.
const raceEnabled = true
