//go:build race

package engine

// The race detector makes sync.Pool drop buffers at random, so heap
// byte counts are not comparable between runs.
func init() { raceEnabled = true }
