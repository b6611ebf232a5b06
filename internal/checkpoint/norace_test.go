//go:build !race

package checkpoint

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
