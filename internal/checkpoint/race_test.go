//go:build race

package checkpoint

// raceEnabled reports a -race build: its sync.Pool drops a random quarter
// of what it is given back, so the pooled-buffer allocation gates skip.
const raceEnabled = true
