package lint

import (
	"slices"
	"testing"
)

// TestSelfCheck runs the full analyzer registry over the repository's own
// packages and fails on any finding. This is the same gate `make lint`
// enforces, kept inside `go test ./...` so a violation cannot land even
// when the Makefile is bypassed.
func TestSelfCheck(t *testing.T) {
	if n := len(Analyzers()); n != 9 {
		t.Fatalf("analyzer registry has %d entries, want 9", n)
	}
	pkgs, err := LoadPackages("../..", "./...")
	if err != nil {
		t.Fatalf("loading module packages: %v", err)
	}
	if len(pkgs) < 5 {
		t.Fatalf("suspiciously few packages loaded: %d", len(pkgs))
	}
	findings, stats := RunAnalyzersStats(pkgs, Analyzers())
	for _, f := range findings {
		t.Errorf("%s", f)
	}
	if len(stats.Analyzers) != len(Analyzers()) {
		t.Errorf("stats cover %d analyzers, want %d", len(stats.Analyzers), len(Analyzers()))
	}
}

// TestLoadResolvesInterfaceEdges checks that the call graph links the
// server's calls through its Journal interface to *journal.Journal. The
// edges exist only when the server and the journal package share one
// typechecked journal package; were journal loaded twice, its Event type
// would have two identities, *journal.Journal would not implement
// server.Journal, and dettaint would never see the journal-payload sink
// on the server's writes.
func TestLoadResolvesInterfaceEdges(t *testing.T) {
	pkgs, err := LoadPackages("../..", "./...")
	if err != nil {
		t.Fatalf("loading module packages: %v", err)
	}
	graph := BuildCallGraph(pkgs)
	const server, journal = "(repro/internal/server.Server)", "(repro/internal/journal.Journal)"
	for _, edge := range []struct{ caller, callee string }{
		{server + ".journalAccepted", journal + ".Append"},
		{server + ".journalAppend", journal + ".Append"},
		{server + ".recoverFromJournal", journal + ".Recovered"},
		{server + ".snapshot", journal + ".Stats"},
	} {
		node := graph.Nodes[FuncID(edge.caller)]
		if node == nil {
			t.Errorf("no call-graph node for %s", edge.caller)
			continue
		}
		if !slices.Contains(node.Callees, FuncID(edge.callee)) {
			t.Errorf("%s -> %s missing; callees: %v", edge.caller, edge.callee, node.Callees)
		}
	}
}
