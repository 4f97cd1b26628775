// Package drpkg is the golden fixture for dettaint's seeded-stage checks.
// The golden test typechecks it under a path inside internal/qc, one of
// the seeded stages whose output must be reproducible, so reading a
// nondeterminism source is a finding even when the value reaches no sink.
package drpkg

import (
	"math/rand"
	"sort"
	"time"
)

func jitter() int64 {
	return time.Now().UnixNano() // want `time.Now in a seeded stage`
}

func elapsed(start time.Time) time.Duration {
	return time.Since(start) // want `time.Since in a seeded stage`
}

func draw() int {
	return rand.Intn(6) // want `rand.Intn draws from the global source`
}

func shuffle(xs []int) {
	rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] }) // want `rand.Shuffle draws from the global source`
}

// Constructing a seeded source is the sanctioned pattern.
func seeded(seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	return rng.Intn(6)
}

func keys(m map[int]bool) []int {
	var out []int
	for k := range m { // want `slice "out" accumulates map-iteration order`
		out = append(out, k)
	}
	return out
}

func keysSorted(m map[int]bool) []int {
	var out []int
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// A slice rebuilt inside the loop body does not leak iteration order.
func rows(m map[int][]int) int {
	total := 0
	for _, vs := range m {
		var row []int
		row = append(row, vs...)
		total += len(row)
	}
	return total
}

func stamp() time.Time {
	//lint:ignore dettaint fixture: wall-clock timestamp for reporting only
	return time.Now()
}
