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
// from MC analysis to netlist emission, the symbolic core, the repair
// SAT solver, and the synthesis server. DeterminismV2 reports the
// nondeterministic constructs written inside these packages and the
// call sites inside them whose callee is transitively nondeterministic
// but lives outside them. Tests may override this to point at fixtures.
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
	// The repair SAT solver: in canonical mode every model is the
	// lexicographically least one and learnt-clause exports are sorted,
	// so the package shares encode's any-worker-count determinism
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
}

// DeterminismV2 is the determinism analyzer. It flags constructs
// whose observable order or value differs between runs — bare map
// iteration, wall-clock reads, PRNG draws — in packages that promise
// reproducible output. The Table-1 pinning tests catch a
// nondeterministic netlist only after the fact; this analyzer points at
// the construct that caused it. Inside the reproducible scope it
// reports each construct where it is written. It is also
// interprocedural: it proves (up to the CHA approximation) that no
// function reachable from the scope does any of these things, and when
// one outside the scope does, it reports the call site inside the scope
// with the offending path, not just the construct three packages away.
var DeterminismV2 = &lint.Analyzer{
	Name: "determinism2",
	Doc: "flags bare map iteration and time/math-rand use in packages that promise " +
		"byte-identical output, and calls from them to functions that are " +
		"transitively nondeterministic (any of those constructs anywhere in their " +
		"call graph), printing the offending path; escape with " +
		"//reprolint:ordered <justification> at the construct (kills the fact) or " +
		"at the call site (waives one call)",
	Run:       runDeterminismV2,
	FactTypes: []lint.Fact{(*NondetFact)(nil)},
}

const orderedEscape = "ordered"

// nondetRange reports whether n is a bare range over a map, returning
// the hazard description.
func nondetRange(pass *lint.Pass, n *ast.RangeStmt) (string, bool) {
	tv, ok := pass.TypesInfo.Types[n.X]
	if !ok {
		return "", false
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return "", false
	}
	return "map iteration order is nondeterministic", true
}

// nondetCall reports whether the call's static callee is a known
// nondeterminism root (clock read, PRNG draw), returning the hazard
// description.
func nondetCall(pass *lint.Pass, n *ast.CallExpr) (string, bool) {
	fn := lint.Callee(pass.TypesInfo, n)
	if fn == nil || fn.Pkg() == nil {
		return "", false
	}
	path, name := fn.Pkg().Path(), fn.Name()
	switch {
	case path == "time" && (name == "Now" || name == "Since" || name == "Until"):
		return "time." + name + " reads the wall clock", true
	case path == "math/rand" || path == "math/rand/v2":
		// Methods (rr.Float64 on a *rand.Rand) draw from whatever source
		// the value was built with; the construction site (rand.New,
		// rand.NewSource — package-level functions) is where the seed is
		// visible and where the finding lands.
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			return "", false
		}
		return path + "." + name + " draws from a process-seeded PRNG", true
	}
	return "", false
}

// nondetConstruct reports whether n is a bare map range or a
// nondeterministic call, returning the hazard description.
func nondetConstruct(pass *lint.Pass, n ast.Node) (string, bool) {
	switch n := n.(type) {
	case *ast.RangeStmt:
		return nondetRange(pass, n)
	case *ast.CallExpr:
		return nondetCall(pass, n)
	}
	return "", false
}

func runDeterminismV2(pass *lint.Pass) error {
	if pass.CallGraph == nil {
		return fmt.Errorf("determinism2 requires the call graph (run through lint.RunFacts)")
	}
	seedNondetFacts(pass)
	propagateNondetFacts(pass)
	if pass.Reporting && DeterministicScope[pass.Pkg.Path()] {
		reportNondetConstructs(pass)
		reportNondetCalls(pass)
	}
	return nil
}

// reportNondetConstructs reports every unescaped nondeterministic
// construct written in this (in-scope) package, and every bare escape
// on one.
func reportNondetConstructs(pass *lint.Pass) {
	for _, file := range pass.Files {
		dirs := lint.FileDirectives(pass.Fset, file)
		ast.Inspect(file, func(n ast.Node) bool {
			reason, ok := nondetConstruct(pass, n)
			if !ok || escaped(pass, dirs, n, orderedEscape) {
				return true
			}
			if _, isRange := n.(*ast.RangeStmt); isRange {
				pass.Reportf(n.Pos(), "%s; sort the keys or annotate //reprolint:ordered <justification>", reason)
			} else {
				pass.Reportf(n.Pos(), "%s, which is nondeterministic in a reproducible package; "+
					"annotate //reprolint:ordered <justification> if it cannot reach the output", reason)
			}
			return true
		})
	}
}

// seedNondetFacts exports a NondetFact for every function of the
// package that directly contains a nondeterministic construct. A
// justified //reprolint:ordered on the construct's line kills the seed
// (the author proved order cannot reach the output); a bare escape
// seeds anyway — reportNondetConstructs reports bare escapes inside the
// scope, and outside it the taint simply keeps flowing.
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
		if r, ok := nondetConstruct(pass, n); ok && !justified(dirs, n, orderedEscape) {
			reason, pos, found = r, n.Pos(), true
		}
		return !found
	})
	return reason, pos, found
}

// justified reports whether node carries a justified escape — without
// reporting bare escapes (the reporting passes own that diagnostic).
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
// already reports the construct or the boundary call, so the finding
// lands exactly where the taint crosses into the scope.
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
