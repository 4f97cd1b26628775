package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestMain lets the test binary serve as its own child process, as the
// benchmark binary does.
func TestMain(m *testing.M) {
	if mode := os.Getenv(childEnv); mode != "" {
		os.Exit(childMain(mode, os.Stdin, os.Stdout))
	}
	code := m.Run()
	if daemonDir != "" {
		os.RemoveAll(daemonDir)
	}
	os.Exit(code)
}

var (
	daemonOnce sync.Once
	daemonDir  string
	daemonErr  error
)

// daemonBinary builds cmd/tqecd once per test binary.
func daemonBinary(t *testing.T) string {
	t.Helper()
	daemonOnce.Do(func() {
		if daemonDir, daemonErr = os.MkdirTemp("", "perfbench-tqecd"); daemonErr != nil {
			return
		}
		out, err := exec.Command("go", "build", "-o", filepath.Join(daemonDir, "tqecd"), "repro/cmd/tqecd").CombinedOutput()
		if err != nil {
			daemonErr = fmt.Errorf("%w\n%s", err, out)
		}
	})
	if daemonErr != nil {
		t.Fatalf("build tqecd: %v", daemonErr)
	}
	return filepath.Join(daemonDir, "tqecd")
}

// testConfig is a tiny-scale run configuration.
func testConfig(t *testing.T, workload string) *config {
	t.Helper()
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	return &config{
		workload: workload,
		seed:     1,
		seconds:  2,
		self:     self,
		killCap:  capScale * 10 * time.Second,
		inputs:   3,
		rate:     20,
		log:      io.Discard,
	}
}

// summary is the benchmark's last output line.
type summary struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// printed runs print and parses the JSON summary it ends with.
func printed(t *testing.T, r *result, traced bool) summary {
	t.Helper()
	var buf bytes.Buffer
	if err := r.print(&buf, traced); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var s summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s); err != nil {
		t.Fatalf("last line is not the summary: %v\n%s", err, buf.String())
	}
	return s
}

var endToEnd = []string{"setup_s", "latency_p50_s", "latency_tail_s", "volume_geomean", "compression_geomean", "peak_rss_mb"}

// TestSmokeAllWorkloads runs every workload at tiny scale (3 compiles, 3
// hot keys for 2 s, or 2 s at 20 requests/s) through the benchmark's own
// code path, untraced and traced, and checks that each reports every
// metric and passes its checks.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			t.Run(name+map[bool]string{false: "", true: "/traced"}[traced], func(t *testing.T) {
				cfg := testConfig(t, name)
				cfg.trace = traced
				if strings.HasPrefix(name, "service") {
					cfg.tqecd = daemonBinary(t)
				}
				r, err := workloads[name].run(context.Background(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				s := printed(t, r, traced)
				if !s.Correct || s.Failed != 0 || s.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", s.Correct, s.Attempted, s.Failed, strings.Join(r.notes, "\n"))
				}
				want := endToEnd
				if traced {
					want = nil
					for _, m := range layerMetrics(&layers{}) {
						want = append(want, m.name)
					}
				}
				if len(s.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(s.Metrics), len(want))
				}
				for _, m := range want {
					v, ok := s.Metrics[m]
					if !ok {
						t.Errorf("metric %s missing", m)
						continue
					}
					if !traced && v.Value <= 0 {
						t.Errorf("%s = %v, want > 0", m, v.Value)
					}
				}
				if traced && s.Metrics["trace.compiles"].Value == 0 {
					t.Error("traced run traced no compile")
				}
			})
		}
	}
}

// TestTailPercent checks that the tail leaves at least ten samples beyond
// it from 40 samples on, and stops at p90.
func TestTailPercent(t *testing.T) {
	for n, want := range map[int]int{3: 75, 39: 75, 40: 75, 50: 80, 66: 80, 67: 85, 99: 85, 100: 90, 40000: 90} {
		if got := tailPercent(n); got != want {
			t.Errorf("tailPercent(%d) = %d, want %d", n, got, want)
		}
	}
}

// TestSpansWritten checks a traced run's span file: every span closes
// after it opens and names an existing parent.
func TestSpansWritten(t *testing.T) {
	cfg := testConfig(t, "compile-mix")
	cfg.trace = true
	cfg.inputs = 1
	r, err := workloads["compile-mix"].run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "spans.json")
	if err := r.spans.write(path, "compile-mix", 1); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f struct{ Spans []span }
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for i, s := range f.Spans {
		names[s.Name] = true
		if s.ID != i+1 || s.Parent >= s.ID || s.EndNS < s.StartNS {
			t.Errorf("malformed span %+v", s)
		}
	}
	for _, n := range []string{"child", "cachekey", "compile", "encode", "verify"} {
		if !names[n] {
			t.Errorf("no %q span", n)
		}
	}
}

// TestBenchmarkJSONNamesEveryMetric checks that the repository's
// BENCHMARK.json lists exactly the workloads and metrics this command
// reports.
func TestBenchmarkJSONNamesEveryMetric(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		slices.Sort(out)
		return strings.Join(out, " ")
	}
	sorted := func(xs []string) string {
		xs = slices.Clone(xs)
		slices.Sort(xs)
		return strings.Join(xs, " ")
	}
	var layerNames []string
	for _, m := range layerMetrics(&layers{}) {
		layerNames = append(layerNames, m.name)
	}
	for _, c := range []struct{ what, got, want string }{
		{"workloads", names(spec.Workloads), sorted(workloadNames())},
		{"end_to_end", names(spec.EndToEnd), sorted(endToEnd)},
		{"per_layer", names(spec.PerLayer), sorted(layerNames)},
	} {
		if c.got != c.want {
			t.Errorf("BENCHMARK.json %s:\n got %s\nwant %s", c.what, c.got, c.want)
		}
	}
}
