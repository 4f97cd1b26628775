package lint

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// engineVersion invalidates every cache entry when the analysis engine
// itself changes meaning: bump it whenever an analyzer's rules, the fact
// schema, or the taint model move.
const engineVersion = "tqeclint-facts-v2"

// cacheEntry is one package's persisted analysis: its content key, the
// function summaries other packages consume, and the findings to replay
// when the package is warm. File paths inside are module-root-relative so
// a cache restored in a different checkout location still joins.
type cacheEntry struct {
	Engine     string                `json:"engine"`
	ImportPath string                `json:"import_path"`
	Key        string                `json:"key"`
	Facts      map[FuncID]*FuncFacts `json:"facts,omitempty"`
	Findings   []Finding             `json:"findings,omitempty"`
}

// cacheFileName flattens an import path into one file name.
func cacheFileName(importPath string) string {
	return strings.NewReplacer("/", "__", ".", "_").Replace(importPath) + ".json"
}

// contentKeys computes the cache key of every listed package: a hash of
// the engine version, the analyzer set, the package's source bytes, and
// the keys of its in-listing dependencies — so editing one package
// invalidates exactly its importers' chain. An unreadable file yields an
// empty key, which never matches and forces a re-analysis.
func contentKeys(listed []listedPackage, analyzers []*Analyzer) map[string]string {
	byPath := map[string]*listedPackage{}
	for i := range listed {
		byPath[listed[i].ImportPath] = &listed[i]
	}
	names := make([]string, 0, len(analyzers))
	for _, a := range analyzers {
		names = append(names, a.Name)
	}
	keys := map[string]string{}
	var visit func(path string) string
	visit = func(path string) string {
		if k, ok := keys[path]; ok {
			return k
		}
		keys[path] = "" // cycle guard; go packages cannot cycle anyway
		lp := byPath[path]
		var b bytes.Buffer
		fmt.Fprintln(&b, engineVersion)
		fmt.Fprintln(&b, strings.Join(names, ","))
		files := append([]string(nil), lp.GoFiles...)
		sort.Strings(files)
		for _, name := range files {
			data, err := os.ReadFile(filepath.Join(lp.Dir, name))
			if err != nil {
				return ""
			}
			fmt.Fprintf(&b, "%s %d\n", name, len(data))
			b.Write(data)
		}
		imps := append([]string(nil), lp.Imports...)
		sort.Strings(imps)
		for _, imp := range imps {
			if _, inSet := byPath[imp]; inSet {
				dep := visit(imp)
				if dep == "" {
					return ""
				}
				fmt.Fprintf(&b, "dep %s %s\n", imp, dep)
			}
		}
		sum := sha256.Sum256(b.Bytes())
		key := hex.EncodeToString(sum[:])
		keys[path] = key
		return key
	}
	for _, lp := range listed {
		visit(lp.ImportPath)
	}
	return keys
}

// readEntry loads one cache entry, nil on any miss or decode error (a
// corrupt entry is just a cold package).
func readEntry(factsDir, importPath string) *cacheEntry {
	data, err := os.ReadFile(filepath.Join(factsDir, cacheFileName(importPath)))
	if err != nil {
		return nil
	}
	var e cacheEntry
	if err := json.Unmarshal(data, &e); err != nil || e.Engine != engineVersion {
		return nil
	}
	return &e
}

// writeEntry persists one entry; errors are returned so the CLI can warn
// without failing the run (a read-only cache dir degrades to cold runs).
func writeEntry(factsDir string, e *cacheEntry) error {
	if err := os.MkdirAll(factsDir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(factsDir, cacheFileName(e.ImportPath)+".tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(factsDir, cacheFileName(e.ImportPath)))
}

// relativize maps an absolute file path under root to a slash-separated
// relative one; paths outside root pass through unchanged.
func relativize(root, file string) string {
	if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return file
}

// absolutize undoes relativize.
func absolutize(root, file string) string {
	if filepath.IsAbs(file) {
		return file
	}
	return filepath.Join(root, filepath.FromSlash(file))
}

// relFacts / absFacts rewrite the position-bearing parts of a package's
// summaries (lock pair sites) between absolute and cache-relative form.
func relFacts(root string, facts map[FuncID]*FuncFacts) map[FuncID]*FuncFacts {
	return mapFacts(facts, func(file string) string { return relativize(root, file) })
}

func absFacts(root string, facts map[FuncID]*FuncFacts) map[FuncID]*FuncFacts {
	return mapFacts(facts, func(file string) string { return absolutize(root, file) })
}

func mapFacts(facts map[FuncID]*FuncFacts, f func(string) string) map[FuncID]*FuncFacts {
	out := make(map[FuncID]*FuncFacts, len(facts))
	for id, ff := range facts {
		cp := *ff
		if len(ff.LockPairs) > 0 {
			cp.LockPairs = make([]LockPair, len(ff.LockPairs))
			for i, p := range ff.LockPairs {
				p.File = f(p.File)
				cp.LockPairs[i] = p
			}
		}
		out[id] = &cp
	}
	return out
}

// RunIncremental is the facts-cache-aware driver behind `make lint`. It
// keys every package by content hash (source bytes plus in-module dep
// keys); packages whose entry in factsDir still matches are not even
// parsed — their findings replay and their summaries feed the analysis of
// the stale rest. When everything is warm the run does no typechecking at
// all, which is what makes a no-change `make lint` fast.
func RunIncremental(dir, factsDir string, patterns []string, analyzers []*Analyzer) ([]Finding, *RunStats, error) {
	start := time.Now()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	root, err := filepath.Abs(dir)
	if err != nil {
		return nil, nil, err
	}
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, nil, err
	}
	stats := &RunStats{Packages: len(listed)}
	keys := contentKeys(listed, analyzers)

	warm := map[string]*cacheEntry{}
	for _, lp := range listed {
		if e := readEntry(factsDir, lp.ImportPath); e != nil && e.Key != "" && e.Key == keys[lp.ImportPath] {
			warm[lp.ImportPath] = e
		}
	}
	stats.CachedPackages = len(warm)

	// Fully warm: replay without loading a single file.
	if len(warm) == len(listed) {
		var all []Finding
		for _, lp := range listed {
			for _, f := range warm[lp.ImportPath].Findings {
				f.File = absolutize(root, f.File)
				all = append(all, f)
			}
		}
		for _, a := range analyzers {
			stats.Analyzers = append(stats.Analyzers, AnalyzerStat{Name: a.Name})
		}
		sortFindings(all)
		stats.TotalDuration = time.Since(start)
		return all, stats, nil
	}

	// Partially warm: load everything (stale packages need their deps'
	// type information), but re-analyze only the stale packages, with the
	// warm packages represented by their cached facts and findings.
	pkgs, err := LoadPackages(dir, patterns...)
	if err != nil {
		return nil, nil, err
	}
	graph := BuildCallGraph(pkgs)
	store := NewFactStore()
	var stale []*Package
	var all []Finding
	for _, pkg := range pkgs {
		if e, ok := warm[pkg.Path]; ok {
			store.Merge(absFacts(root, e.Facts))
			for _, f := range e.Findings {
				f.File = absolutize(root, f.File)
				all = append(all, f)
			}
			continue
		}
		stale = append(stale, pkg)
	}
	factsStart := time.Now()
	ComputeFacts(store, graph, stale)
	stats.FactsDuration = time.Since(factsStart)
	all = append(all, analyzePackages(stale, analyzers, store, graph, stats)...)
	sortFindings(all)

	// Persist the stale packages' fresh entries. Findings are stored
	// per-package by file ownership.
	byFile := map[string]string{} // abs file -> import path
	for _, pkg := range stale {
		for _, f := range pkg.Files {
			byFile[pkg.Fset.Position(f.Package).Filename] = pkg.Path
		}
	}
	perPkg := map[string][]Finding{}
	for _, f := range all {
		if path, ok := byFile[f.File]; ok {
			rf := f
			rf.File = relativize(root, rf.File)
			perPkg[path] = append(perPkg[path], rf)
		}
	}
	for _, pkg := range stale {
		e := &cacheEntry{
			Engine:     engineVersion,
			ImportPath: pkg.Path,
			Key:        keys[pkg.Path],
			Facts:      relFacts(root, store.PackageFacts(pkg)),
			Findings:   perPkg[pkg.Path],
		}
		if e.Key == "" {
			continue
		}
		if err := writeEntry(factsDir, e); err != nil {
			return all, stats, fmt.Errorf("lint: writing facts cache: %w", err)
		}
	}
	stats.TotalDuration = time.Since(start)
	return all, stats, nil
}
