//go:build !race

package operator

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
