package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"

	"repro/internal/analysis/lint"
)

// NondetFact marks a function that — directly or through any call chain
// — ranges a map bare, reads the wall clock, or draws from a PRNG. The
// fact is exported for every function of every loaded package and
// serialized per package, so a helper's nondeterminism is visible to
// callers in packages that only see its export data.
type NondetFact struct {
	// Reason describes the root construct.
	Reason string `json:"reason"`
	// Path is the call chain from this function to the root: callee
	// display names ("stg.explore"), ending in the root construct with
	// its file:line.
	Path []string `json:"path"`
}

// AFact marks NondetFact as a lint fact.
func (*NondetFact) AFact() {}

// nondetPathCap bounds the recorded chain; deeper paths truncate with
// an ellipsis so fact files stay small on pathological call towers.
const nondetPathCap = 8

// DeterministicScope names the packages that promise byte-identical
// output for identical input at any worker count: the Table-1 pipeline
// from MC analysis to netlist emission, the symbolic core, the
// portfolio SAT layer, and the synthesis server. Determinism (v1)
// reports constructs written inside these packages; DeterminismV2
// reports call sites inside them whose callee is transitively
// nondeterministic but lives outside them. Tests may override this to
// point at fixtures.
var DeterministicScope = map[string]bool{
	"repro/internal/core":    true,
	"repro/internal/encode":  true,
	"repro/internal/netlist": true,
	"repro/internal/synth":   true,
	"repro/internal/verify":  true,
	"repro/internal/cube":    true,
	"repro/internal/tech":    true,
	// The symbolic core: node ids, variable orders and region
	// decompositions must come out identical run over run, or the
	// engine differential tests and the analysis-only reports past the
	// explicit state limit stop meaning anything.
	"repro/internal/bdd":    true,
	"repro/internal/engine": true,
	// The portfolio SAT layer: every model comes from the canonical
	// anchor and clause exchange is merged in sorted order, so the
	// whole package shares encode's any-worker-count determinism
	// promise.
	"repro/internal/sat": true,
	// The synthesis server: cached, coalesced and sharded execution
	// must return byte-identical results to a cold sequential run, so
	// the serving layer itself carries the determinism promise.
	"repro/internal/serve": true,
}

// nondetExemptPkgs are packages whose output is telemetry, not pipeline
// artifact: every event and span is wall-clock-stamped by design, so
// seeding Nondeterministic facts there would taint every instrumented
// call site without protecting any reproducible output.
var nondetExemptPkgs = map[string]bool{
	"repro/internal/obs":         true,
	"repro/internal/obs/journal": true,
	"repro/internal/obs/obshttp": true,
	"repro/internal/obs/prof":    true,
}

// DeterminismV2 is the interprocedural determinism analyzer: it proves
// (up to the CHA approximation) that no function reachable from the
// reproducible-scope packages ranges a map bare, reads the clock, or
// draws PRNG — and when one does, it reports the call site inside the
// scope with the offending path, not just the construct three packages
// away.
var DeterminismV2 = &lint.Analyzer{
	Name: "determinism2",
	Doc: "flags calls from reproducible-scope packages to functions that are " +
		"transitively nondeterministic (bare map range, clock read, PRNG draw " +
		"anywhere in their call graph), printing the offending path; escape with " +
		"//reprolint:ordered <justification> at the construct (kills the fact) or " +
		"at the call site (waives one call)",
	Run:       runDeterminismV2,
	FactTypes: []lint.Fact{(*NondetFact)(nil)},
}

func runDeterminismV2(pass *lint.Pass) error {
	if pass.CallGraph == nil {
		return fmt.Errorf("determinism2 requires the call graph (run through lint.RunFacts)")
	}
	seedNondetFacts(pass)
	propagateNondetFacts(pass)
	if pass.Reporting && DeterministicScope[pass.Pkg.Path()] {
		reportNondetCalls(pass)
	}
	return nil
}

// seedNondetFacts exports a NondetFact for every function of the
// package that directly contains a nondeterministic construct. A
// justified //reprolint:ordered on the construct's line kills the seed
// (the author proved order cannot reach the output); a bare escape
// seeds anyway — v1 reports bare escapes inside the scope, and outside
// it the taint simply keeps flowing.
func seedNondetFacts(pass *lint.Pass) {
	if nondetExemptPkgs[pass.Pkg.Path()] {
		return
	}
	for _, file := range pass.Files {
		dirs := lint.FileDirectives(pass.Fset, file)
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			if reason, pos, ok := firstNondetConstruct(pass, dirs, fd); ok {
				pass.ExportObjectFact(fn, &NondetFact{
					Reason: reason,
					Path:   []string{fmt.Sprintf("%s (%s)", reason, shortPos(pass.Fset, pos))},
				})
			}
		}
	}
}

// firstNondetConstruct finds the first unescaped nondeterministic
// construct in fd's body (function literals included: they run on the
// declaring function's behalf).
func firstNondetConstruct(pass *lint.Pass, dirs *lint.DirectiveIndex, fd *ast.FuncDecl) (reason string, pos token.Pos, found bool) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.RangeStmt:
			if r, ok := nondetRange(pass, n); ok && !justified(dirs, n, orderedEscape) {
				reason, pos, found = r, n.Pos(), true
			}
		case *ast.CallExpr:
			if r, ok := nondetCall(pass, n); ok && !justified(dirs, n, orderedEscape) {
				reason, pos, found = r, n.Pos(), true
			}
		}
		return !found
	})
	return reason, pos, found
}

// justified reports whether node carries a justified escape — without
// reporting bare escapes (the syntactic analyzers own that diagnostic).
func justified(dirs *lint.DirectiveIndex, node ast.Node, name string) bool {
	esc, _ := dirs.Escaped(node, name)
	return esc
}

// propagateNondetFacts runs the within-package fixpoint: a function
// calling (statically, through an interface under CHA, via go or defer)
// a function holding a NondetFact inherits it with the callee prepended
// to the path. Facts of dependency packages arrive through the store;
// same-package cycles converge because a function's fact is set at most
// once.
func propagateNondetFacts(pass *lint.Pass) {
	nodes := pass.CallGraph.PackageNodes(pass.Pkg.Path())
	for changed := true; changed; {
		changed = false
		for _, n := range nodes {
			var have NondetFact
			if pass.ImportObjectFact(n.Fn, &have) {
				continue
			}
			for _, e := range n.Out {
				if e.Callee == nil {
					continue // dynamic: unresolvable, documented blind spot
				}
				var f NondetFact
				if !pass.ImportObjectFact(e.Callee, &f) {
					continue
				}
				pass.ExportObjectFact(n.Fn, &NondetFact{
					Reason: f.Reason,
					Path:   extendPath(qualifiedName(e.Callee), f.Path),
				})
				changed = true
				break
			}
		}
	}
}

// extendPath prepends one hop, truncating at nondetPathCap.
func extendPath(hop string, rest []string) []string {
	path := append([]string{hop}, rest...)
	if len(path) > nondetPathCap {
		path = append(path[:nondetPathCap:nondetPathCap], "…")
	}
	return path
}

// reportNondetCalls reports, once per call site, calls from this
// (in-scope) package to a fact-holding callee defined outside the
// deterministic scope. In-scope callees are skipped: their own package
// already reports the construct (v1) or the boundary call (v2), so the
// finding lands exactly where the taint crosses into the scope.
func reportNondetCalls(pass *lint.Pass) {
	dirIndexes := map[*ast.File]*lint.DirectiveIndex{}
	fileOf := func(pos token.Pos) *ast.File {
		for _, f := range pass.Files {
			if f.FileStart <= pos && pos < f.FileEnd {
				return f
			}
		}
		return nil
	}
	reported := map[token.Pos]bool{}
	for _, n := range pass.CallGraph.PackageNodes(pass.Pkg.Path()) {
		for _, e := range n.Out {
			if e.Callee == nil || reported[e.Site] {
				continue
			}
			calleePkg := e.Callee.Pkg()
			if calleePkg == nil || DeterministicScope[calleePkg.Path()] {
				continue
			}
			var f NondetFact
			if !pass.ImportObjectFact(e.Callee, &f) {
				continue
			}
			reported[e.Site] = true
			file := fileOf(e.Site)
			if file == nil {
				continue
			}
			dirs := dirIndexes[file]
			if dirs == nil {
				dirs = lint.FileDirectives(pass.Fset, file)
				dirIndexes[file] = dirs
			}
			if escaped(pass, dirs, e.Call, orderedEscape) {
				continue
			}
			pass.Reportf(e.Site, "call to %s is transitively nondeterministic: %s; "+
				"fix the root or annotate //reprolint:ordered <justification>",
				qualifiedName(e.Callee), strings.Join(f.Path, " → "))
		}
	}
}

// qualifiedName renders a function as "pkgname.Display" ("stg.explore",
// "sg.Graph.Check").
func qualifiedName(fn *types.Func) string {
	if fn.Pkg() == nil {
		return fn.Name()
	}
	return fn.Pkg().Name() + "." + lint.FuncDisplayName(fn)
}

// shortPos renders a position as "file.go:42" (base name only, so fact
// files do not embed the checkout directory).
func shortPos(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}
