//go:build race

package route

// raceEnabled reports a race-detector build, whose sync.Pool drops pooled
// search state at random, so allocation bounds do not hold there.
const raceEnabled = true
