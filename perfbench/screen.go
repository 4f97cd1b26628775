package main

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// screened are the universes the offline screen covers, with the chains
// and partition cap their workloads compile them with.
var screened = []struct {
	u          universe
	chains, cp int
}{
	{mixUniverse, 1, 0},
	{serviceUniverse, 1, 0},
	{clusteredUniverse, 1, 6},
}

// screenUniverses compiles every draw of every universe, two at a time,
// each in a child process killed after limit, and writes an excluded.txt
// line for each draw that failed, failed its checks or was killed. Small
// random circuits hit an exponential case of the bridging path search
// about once in sixty draws, and bridging ignores cancellation, so the
// list is made once, offline, and committed: the inputs of a run never
// depend on the build or the machine that runs it.
func screenUniverses(ctx context.Context, self string, limit time.Duration, out io.Writer) error {
	fmt.Fprintf(out, "# Universe draws left out of the benchmark's inputs: the compile failed,\n")
	fmt.Fprintf(out, "# failed its checks, or ran past %s (perfbench --screen).\n", limit)
	for _, s := range screened {
		ms := s.u.members(nil)
		lines := make([]string, len(ms))
		errs := make([]error, len(ms))
		next := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := range next {
					lines[k], errs[k] = screenOne(ctx, self, s.u.name, ms[k], s.chains, s.cp, limit)
				}
			}()
		}
		for k := range ms {
			next <- k
		}
		close(next)
		wg.Wait()
		for k := range ms {
			if errs[k] != nil {
				return errs[k]
			}
			if lines[k] != "" {
				fmt.Fprintln(out, lines[k])
			}
		}
	}
	return nil
}

// screenOne compiles one draw and returns its excluded.txt line, or "" if
// it compiled and passed its checks within limit.
func screenOne(ctx context.Context, self, name string, m member, chains, cp int, limit time.Duration) (string, error) {
	j, err := newJob(m.c, chains, cp)
	if err != nil {
		return "", err
	}
	cr, err := runChild(ctx, self, modeCompile, j, limit)
	if err != nil {
		return "", err
	}
	why := ""
	switch {
	case cr.killed:
		why = "killed at " + limit.String()
	case cr.out.Err != "":
		why = cr.out.Err
	case cr.out.VerifyErr != "":
		why = cr.out.VerifyErr
	default:
		return "", nil
	}
	return fmt.Sprintf("%s %d # %s", name, m.index, strings.Join(strings.Fields(why), " ")), nil
}
