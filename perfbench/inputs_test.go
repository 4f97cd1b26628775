package main

import (
	"fmt"
	"slices"
	"testing"
)

// TestPickIsAFunctionOfTheSeed checks that a seed always picks the same
// circuits, another seed other circuits from the same strata, and that no
// pick is excluded or repeated.
func TestPickIsAFunctionOfTheSeed(t *testing.T) {
	for _, u := range []universe{mixUniverse, serviceUniverse, clusteredUniverse} {
		t.Run(u.name, func(t *testing.T) {
			const n = 40
			names := func(seed int64) (names []string, strata []string) {
				cs, err := u.pick(seed, n)
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range cs {
					names = append(names, c.Name)
					strata = append(strata, fmt.Sprint(u.stratum(c)))
				}
				slices.Sort(strata)
				return names, strata
			}
			a, sa := names(5)
			b, _ := names(5)
			c, sc := names(6)
			if !slices.Equal(a, b) {
				t.Fatalf("seed 5 picked\n%v\nthen\n%v", a, b)
			}
			if slices.Equal(a, c) {
				t.Error("seeds 5 and 6 picked the same circuits")
			}
			if !slices.Equal(sa, sc) {
				t.Errorf("strata differ between seeds:\n%v\n%v", sa, sc)
			}
			// service-hot's Zipf ranks rely on rank k having the same
			// stratum on every seed.
			rankStrata := func(seed int64) (strata []string) {
				cs, err := u.ranked(seed, n)
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range cs {
					strata = append(strata, fmt.Sprint(u.stratum(c)))
				}
				return strata
			}
			if r5, r6 := rankStrata(5), rankStrata(6); !slices.Equal(r5, r6) {
				t.Errorf("ranked strata differ between seeds:\n%v\n%v", r5, r6)
			}
			seen := map[string]bool{}
			for _, name := range a {
				var i int
				if _, err := fmt.Sscanf(name, u.name+"-%d", &i); err != nil {
					t.Fatal(err)
				}
				if seen[name] || excluded[u.name][i] {
					t.Errorf("%s picked twice or excluded", name)
				}
				seen[name] = true
			}
		})
	}
}

// TestExcludedNamesUniverseDraws checks that every excluded.txt line names
// a draw of a screened universe.
func TestExcludedNamesUniverseDraws(t *testing.T) {
	sizes := map[string]int{}
	for _, s := range screened {
		sizes[s.u.name] = s.u.size
	}
	for name, idx := range excluded {
		size, ok := sizes[name]
		if !ok {
			t.Errorf("excluded.txt names unknown universe %q", name)
		}
		for i := range idx {
			if i < 0 || i >= size {
				t.Errorf("excluded.txt: %s %d is not a draw", name, i)
			}
		}
	}
}
