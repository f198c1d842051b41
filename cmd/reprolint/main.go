// Command reprolint is the repository's invariant checker: a
// multichecker running the internal/analysis suite (determinism2,
// hotalloc, obssafe, parpool, cachekey, lockdiscipline) over the
// packages matching its arguments.
//
//	go run ./cmd/reprolint ./...
//	go run ./cmd/reprolint -factdir /tmp/facts ./...
//
// It prints one line per finding (file:line:col: message (analyzer))
// and exits 1 when anything is reported, 0 on a clean run. With
// -factdir it additionally persists each interprocedural analyzer's
// serialized per-package facts — one file per (analyzer, package),
// byte-identical across runs. CI runs it on every push; see the
// "Static analysis & invariants" section of DESIGN.md for the
// invariant each analyzer enforces and its escape hatch.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/lint"
)

func main() {
	doc := flag.Bool("doc", false, "print each analyzer's documentation and exit")
	factdir := flag.String("factdir", "", "write each interprocedural analyzer's per-package fact files to this directory")
	flag.Parse()
	if *doc {
		for _, sa := range analysis.Suite() {
			fmt.Printf("%s: %s\n\n", sa.Analyzer.Name, sa.Analyzer.Doc)
		}
		return
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "reprolint:", err)
		os.Exit(2)
	}
	pkgs, err := lint.Load(cwd, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reprolint:", err)
		os.Exit(2)
	}
	suite := analysis.Suite()
	findings, store, err := lint.RunFacts(pkgs, suite)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reprolint:", err)
		os.Exit(2)
	}
	if *factdir != "" {
		if err := writeFacts(*factdir, suite, store); err != nil {
			fmt.Fprintln(os.Stderr, "reprolint:", err)
			os.Exit(2)
		}
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "reprolint: %d finding(s) in %d package(s)\n", len(findings), len(pkgs))
		os.Exit(1)
	}
}

// writeFacts persists one fact file per (analyzer, package) as
// <dir>/<analyzer>/<package-with-slashes-escaped>.json. The bytes are
// the store's canonical serialization: running reprolint twice over the
// same tree writes identical files.
func writeFacts(dir string, suite []lint.ScopedAnalyzer, store *lint.FactStore) error {
	for _, sa := range suite {
		if !sa.Analyzer.Interprocedural() {
			continue
		}
		adir := filepath.Join(dir, sa.Analyzer.Name)
		if err := os.MkdirAll(adir, 0o755); err != nil {
			return err
		}
		for _, pkgPath := range store.Packages(sa.Analyzer.Name) {
			name := strings.ReplaceAll(pkgPath, "/", "__") + ".json"
			data := store.Encoded(sa.Analyzer.Name, pkgPath)
			if err := os.WriteFile(filepath.Join(adir, name), data, 0o644); err != nil {
				return err
			}
		}
	}
	return nil
}
