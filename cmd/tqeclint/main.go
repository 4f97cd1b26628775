// Command tqeclint runs the repo's static-analysis passes (internal/lint)
// over the given package patterns and reports findings as
//
//	file:line:col: [analyzer] message
//
// exiting 1 when anything is found and 2 on load errors. It is wired into
// `make lint` (and thus `make ci`); the self-check test in internal/lint
// keeps the CLI and CI in lockstep.
//
// Usage:
//
//	tqeclint [-json] [-github] [-list] [-C dir] [-graph] [-stats]
//	         [-summary file] [packages ...]
//
// With no patterns it analyzes ./... . -json emits the findings as a JSON
// array for tooling; -github emits GitHub Actions workflow commands
// (::error file=...,line=...,col=...::message) so findings surface as
// inline annotations on pull requests; -list prints the analyzer registry.
// -graph dumps the CHA call graph and exits. -stats prints per-analyzer
// timing to stderr; -summary appends a Markdown run report to the given
// file (pass "$GITHUB_STEP_SUMMARY" in CI).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array")
	github := flag.Bool("github", false, "emit findings as GitHub Actions ::error annotations")
	list := flag.Bool("list", false, "list the registered analyzers and exit")
	dir := flag.String("C", ".", "directory to resolve package patterns from")
	graph := flag.Bool("graph", false, "dump the CHA call graph instead of running analyzers")
	stats := flag.Bool("stats", false, "print per-analyzer timing to stderr")
	summary := flag.String("summary", "", "append a Markdown run summary to this file")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: tqeclint [-json] [-github] [-list] [-C dir] [-graph] [-stats] [-summary file] [packages ...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	pkgs, err := lint.LoadPackages(*dir, flag.Args()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tqeclint:", err)
		os.Exit(2)
	}
	if *graph {
		lint.BuildCallGraph(pkgs).Dump(os.Stdout)
		return
	}
	findings, runStats := lint.RunAnalyzersStats(pkgs, lint.Analyzers())

	switch {
	case *jsonOut:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(os.Stderr, "tqeclint:", err)
			os.Exit(2)
		}
	case *github:
		for _, f := range relFindings(findings) {
			fmt.Println(githubAnnotation(f))
		}
	default:
		for _, f := range relFindings(findings) {
			fmt.Println(f)
		}
	}
	if *stats {
		fmt.Fprint(os.Stderr, statsText(runStats))
	}
	if *summary != "" {
		if err := appendSummary(*summary, runStats, len(findings)); err != nil {
			fmt.Fprintln(os.Stderr, "tqeclint: writing summary:", err)
		}
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}

// statsText renders the run stats as aligned plain text.
func statsText(s *lint.RunStats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "packages: %d  facts: %s  total: %s\n",
		s.Packages, s.FactsDuration.Round(1e6), s.TotalDuration.Round(1e6))
	for _, a := range s.Analyzers {
		fmt.Fprintf(&b, "  %-12s %4d findings  %8s\n", a.Name, a.Findings, a.Duration.Round(1e6))
	}
	return b.String()
}

// appendSummary appends a Markdown table of the run to path — the shape
// GitHub renders in the Actions job summary.
func appendSummary(path string, s *lint.RunStats, findings int) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	var b strings.Builder
	fmt.Fprintf(&b, "### tqeclint\n\n")
	fmt.Fprintf(&b, "%d finding(s) across %d package(s). Facts %s, total %s.\n\n",
		findings, s.Packages, s.FactsDuration.Round(1e6), s.TotalDuration.Round(1e6))
	fmt.Fprintf(&b, "| analyzer | findings | time |\n|---|---:|---:|\n")
	for _, a := range s.Analyzers {
		fmt.Fprintf(&b, "| %s | %d | %s |\n", a.Name, a.Findings, a.Duration.Round(1e6))
	}
	fmt.Fprintf(&b, "\n")
	_, err = f.WriteString(b.String())
	return err
}

// relFindings rewrites absolute file paths relative to the working
// directory, which for -github must be the repository root so annotations
// attach to the right files in the diff view.
func relFindings(findings []lint.Finding) []lint.Finding {
	cwd, err := os.Getwd()
	if err != nil {
		return findings
	}
	out := make([]lint.Finding, len(findings))
	for i, f := range findings {
		if rel, err := filepath.Rel(cwd, f.File); err == nil {
			f.File = rel
		}
		out[i] = f
	}
	return out
}

// githubAnnotation renders one finding as a GitHub Actions workflow
// command. Message data must escape %, CR and LF; property values
// additionally escape ':' and ','.
func githubAnnotation(f lint.Finding) string {
	esc := strings.NewReplacer("%", "%25", "\r", "%0D", "\n", "%0A")
	prop := strings.NewReplacer("%", "%25", "\r", "%0D", "\n", "%0A", ":", "%3A", ",", "%2C")
	return fmt.Sprintf("::error file=%s,line=%d,col=%d,title=tqeclint %s::[%s] %s",
		prop.Replace(f.File), f.Line, f.Col, prop.Replace(f.Analyzer),
		esc.Replace(f.Analyzer), esc.Replace(f.Message))
}
