//go:build !race

package main

// capScale stretches the children's time caps in tests.
const capScale = 1
