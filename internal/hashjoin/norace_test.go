//go:build !race

package hashjoin

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
