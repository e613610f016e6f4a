//go:build race

package experiment

// The race detector's runtime allocates more per process than a normal
// build, so heap byte counts do not match the bound's build.
func init() { raceEnabled = true }
