package lint

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// wantRe extracts the expectation from a trailing `// want `+"`regex`"+“ comment.
var wantRe = regexp.MustCompile("// want `([^`]+)`")

type want struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// parseWants scans every fixture file for `// want` comments and returns
// one expectation per comment, anchored to the comment's own line.
func parseWants(t *testing.T, dir string) []*want {
	t.Helper()
	entries, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatalf("glob %s: %v", dir, err)
	}
	sort.Strings(entries)
	var wants []*want
	for _, path := range entries {
		f, err := os.Open(path)
		if err != nil {
			t.Fatalf("open %s: %v", path, err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			m := wantRe.FindStringSubmatch(sc.Text())
			if m == nil {
				continue
			}
			re, err := regexp.Compile(m[1])
			if err != nil {
				t.Fatalf("%s:%d: bad want regexp %q: %v", path, line, m[1], err)
			}
			wants = append(wants, &want{file: path, line: line, re: re})
		}
		if err := sc.Err(); err != nil {
			t.Fatalf("scan %s: %v", path, err)
		}
		if err := f.Close(); err != nil {
			t.Fatalf("close %s: %v", path, err)
		}
	}
	if len(wants) == 0 {
		t.Fatalf("no // want comments found under %s", dir)
	}
	return wants
}

// runGolden typechecks one fixture directory under asPath, runs exactly one
// analyzer over it, and matches findings against the // want expectations in
// both directions: every finding must be wanted, every want must be found.
func runGolden(t *testing.T, analyzer, asPath string) {
	t.Helper()
	a := ByName(analyzer)
	if a == nil {
		t.Fatalf("no analyzer named %q", analyzer)
	}
	dir := filepath.Join("testdata", "src", analyzer)
	pkg, err := LoadDir(dir, asPath)
	if err != nil {
		t.Fatalf("load fixture %s: %v", dir, err)
	}
	wants := parseWants(t, dir)
	findings := RunAnalyzers([]*Package{pkg}, []*Analyzer{a})
	matchWants(t, findings, wants)
}

func TestGoldenNoPanic(t *testing.T) {
	runGolden(t, "nopanic", "repro/internal/nptest")
}

func TestGoldenCtxFlow(t *testing.T) {
	runGolden(t, "ctxflow", "repro/internal/ctxtest")
}

func TestGoldenErrDiscard(t *testing.T) {
	runGolden(t, "errdiscard", "repro/internal/edtest")
}

func TestGoldenCtxSleep(t *testing.T) {
	runGolden(t, "ctxsleep", "repro/internal/cstest")
}

func TestGoldenGeomBounds(t *testing.T) {
	runGolden(t, "geombounds", "repro/internal/gbtest")
}

func TestGoldenDocComment(t *testing.T) {
	runGolden(t, "doccomment", "repro/internal/dctest")
}

func TestGoldenGoLeak(t *testing.T) {
	runGolden(t, "goleak", "repro/internal/gltest")
}

func TestGoldenLockCheck(t *testing.T) {
	runGolden(t, "lockcheck", "repro/internal/lctest")
}

// TestGoldenDetTaint is the dettaint fixture, two packages in one load.
// Sources live in testdata/src/dettaint/taintsrc and sinks in
// testdata/src/dettaint, so those findings prove flows that crossed the
// package boundary through the function-summary layer.
func TestGoldenDetTaint(t *testing.T) {
	srcDir := filepath.Join("testdata", "src", "dettaint", "taintsrc")
	sinkDir := filepath.Join("testdata", "src", "dettaint")
	pkgs, err := LoadDirs([]DirSpec{
		{Dir: srcDir, AsPath: "repro/internal/dttest/taintsrc"},
		{Dir: sinkDir, AsPath: "repro/internal/dttest"},
	})
	if err != nil {
		t.Fatalf("load fixture packages: %v", err)
	}
	wants := append(parseWants(t, sinkDir), optionalWants(t, srcDir)...)
	findings := RunAnalyzers(pkgs, []*Analyzer{ByName("dettaint")})
	matchWants(t, findings, wants)
}

// TestGoldenDetRand pins dettaint's seeded-stage checks: wall-clock reads,
// global math/rand draws and unsorted map-order accumulators. The fixture
// is typechecked under a path inside internal/qc, one of the seeded stages.
func TestGoldenDetRand(t *testing.T) {
	dir := filepath.Join("testdata", "src", "dettaint", "seeded")
	pkg, err := LoadDir(dir, "repro/internal/qc/drtest")
	if err != nil {
		t.Fatalf("load fixture %s: %v", dir, err)
	}
	findings := RunAnalyzers([]*Package{pkg}, []*Analyzer{ByName("dettaint")})
	matchWants(t, findings, parseWants(t, dir))
}

// optionalWants parses want comments from a directory that may have none
// (the taint-source package is expected to be finding-free).
func optionalWants(t *testing.T, dir string) []*want {
	t.Helper()
	entries, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatalf("glob %s: %v", dir, err)
	}
	var wants []*want
	for _, path := range entries {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		for i, text := range strings.Split(string(data), "\n") {
			m := wantRe.FindStringSubmatch(text)
			if m == nil {
				continue
			}
			re, err := regexp.Compile(m[1])
			if err != nil {
				t.Fatalf("%s:%d: bad want regexp %q: %v", path, i+1, m[1], err)
			}
			wants = append(wants, &want{file: path, line: i + 1, re: re})
		}
	}
	return wants
}

// matchWants checks findings against wants in both directions.
func matchWants(t *testing.T, findings []Finding, wants []*want) {
	t.Helper()
	for _, f := range findings {
		matched := false
		for _, w := range wants {
			if w.hit || filepath.Clean(w.file) != filepath.Clean(f.File) || w.line != f.Line {
				continue
			}
			if w.re.MatchString(f.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: no finding matched want `%s`", w.file, w.line, w.re)
		}
	}
}

// TestSuppressionUnused checks that a directive whose analyzer no longer
// fires on the covered line is itself reported, and that a directive
// naming an unknown analyzer is too.
func TestSuppressionUnused(t *testing.T) {
	dir := t.TempDir()
	src := `package audited

// Clean is fine; the directive below it suppresses nothing.
func Clean() int {
	//lint:ignore nopanic this panic was removed two refactors ago
	return 1
}

// Typo names an analyzer that does not exist.
func Typo() int {
	//lint:ignore nopanics reason with a typo in the analyzer name
	return 2
}

// Live has a real violation; its directive is used, not reported.
func Live() {
	//lint:ignore nopanic exercised by the golden test
	panic("suppressed")
}
`
	if err := os.WriteFile(filepath.Join(dir, "a.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := LoadDir(dir, "repro/internal/audtest")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	findings := RunAnalyzers([]*Package{pkg}, []*Analyzer{ByName("nopanic")})
	var unused, unknown, other []Finding
	for _, f := range findings {
		switch {
		case f.Analyzer == "lint" && strings.Contains(f.Message, "unused //lint:ignore"):
			unused = append(unused, f)
		case f.Analyzer == "lint" && strings.Contains(f.Message, "unknown analyzer"):
			unknown = append(unknown, f)
		default:
			other = append(other, f)
		}
	}
	if len(unused) != 1 {
		t.Errorf("want exactly one unused-directive finding, got %v", unused)
	}
	if len(unknown) != 1 {
		t.Errorf("want exactly one unknown-analyzer finding, got %v", unknown)
	}
	if len(other) != 0 {
		t.Errorf("unexpected findings: %v", other)
	}
}

// TestSuppressionMalformed checks that a directive missing its reason is
// itself reported under the "lint" pseudo-analyzer rather than silently
// swallowing findings.
func TestSuppressionMalformed(t *testing.T) {
	dir := t.TempDir()
	src := `package badpkg

func f() {
	//lint:ignore nopanic
	panic("still reported")
}
`
	if err := os.WriteFile(filepath.Join(dir, "a.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := LoadDir(dir, "repro/internal/badtest")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	findings := RunAnalyzers([]*Package{pkg}, []*Analyzer{ByName("nopanic")})
	var gotMalformed, gotPanic bool
	for _, f := range findings {
		switch f.Analyzer {
		case "lint":
			gotMalformed = true
		case "nopanic":
			gotPanic = true
		}
	}
	if !gotMalformed {
		t.Errorf("malformed directive not reported: %v", findings)
	}
	if !gotPanic {
		t.Errorf("malformed directive suppressed the panic finding: %v", findings)
	}
}

// TestFindingString pins the human-readable output format the CLI prints.
func TestFindingString(t *testing.T) {
	f := Finding{Analyzer: "nopanic", Message: "call to panic", File: "a/b.go", Line: 7, Col: 3}
	got := f.String()
	expect := fmt.Sprintf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
	if got != expect {
		t.Errorf("Finding.String() = %q, want %q", got, expect)
	}
}
