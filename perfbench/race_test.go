//go:build race

package main

// capScale stretches the children's time caps in tests: race-instrumented
// children run several times slower.
const capScale = 10
