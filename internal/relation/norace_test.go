//go:build !race

package relation

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
