//go:build !race

package route

// raceEnabled reports a race-detector build.
const raceEnabled = false
