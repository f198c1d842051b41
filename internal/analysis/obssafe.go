package analysis

import (
	"go/ast"

	"repro/internal/analysis/lint"
)

// obsPkgPath is the core observability package every instrumented
// package talks to — the one that exports Get().
const obsPkgPath = "repro/internal/obs"

// obsLayerPkgs is the full observability layer: the core package plus
// the flight recorder and the HTTP ops plane.
// The layer manages its own nil discipline (so it is exempt from the
// Get() rule), but calls INTO any of these packages from a hotpath
// loop violate the publish-once-per-stage contract — a journal write
// or SSE fan-out per iteration is strictly worse than the atomics PR 3
// removed.
var obsLayerPkgs = map[string]bool{
	obsPkgPath:                   true,
	"repro/internal/obs/journal": true,
	"repro/internal/obs/obshttp": true,
}

// ObsSafe enforces the two contracts of the observability layer:
//
//  1. nil-safety — obs.Get() may return nil (observation off), so its
//     result must be bound and nil-checked before its fields are
//     touched; chaining obs.Get().Metrics panics on unobserved runs.
//     The package-level helpers (obs.Start, obs.Info, obs.TaskHook,
//     obs.Enabled) are always safe.
//  2. publish once per stage — //reprolint:hotpath functions accumulate
//     plain struct-local tallies and publish after the loop; any call
//     into the obs layer (the core package, the journal, the SSE
//     server) inside one of their loops
//     reintroduces the per-iteration costs PR 3 removed.
var ObsSafe = &lint.Analyzer{
	Name: "obssafe",
	Doc: "flags field access on an unchecked obs.Get() result and obs calls inside " +
		"//reprolint:hotpath loops (the publish-once-per-stage rule); escape with " +
		"//reprolint:obs <justification>",
	Run: runObsSafe,
}

const obsEscape = "obs"

func runObsSafe(pass *lint.Pass) error {
	if obsLayerPkgs[pass.Pkg.Path()] {
		return nil // the layer itself manages its own nil discipline
	}
	for _, file := range pass.Files {
		dirs := lint.FileDirectives(pass.Fset, file)
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			call, ok := ast.Unparen(sel.X).(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := lint.Callee(pass.TypesInfo, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != obsPkgPath || fn.Name() != "Get" {
				return true
			}
			if escaped(pass, dirs, sel, obsEscape) {
				return true
			}
			pass.Reportf(sel.Pos(), "obs.Get() may return nil; bind and nil-check the observer "+
				"before touching %s, or use the nil-safe package helpers", sel.Sel.Name)
			return true
		})

		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !lint.HasMarker(pass.Fset, fd, hotpathMarker) {
				continue
			}
			checkObsInLoops(pass, dirs, fd)
		}
	}
	return nil
}

// checkObsInLoops flags calls into the obs layer (package functions or
// methods on obs-declared types) inside the loops of one hotpath
// function.
func checkObsInLoops(pass *lint.Pass, dirs *lint.DirectiveIndex, fd *ast.FuncDecl) {
	walkLoop := func(body ast.Node) {
		ast.Inspect(body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := lint.Callee(pass.TypesInfo, call)
			if fn == nil || fn.Pkg() == nil || !obsLayerPkgs[fn.Pkg().Path()] {
				return true
			}
			if escaped(pass, dirs, call, obsEscape) {
				return true
			}
			pass.Reportf(call.Pos(), "obs publish %s inside a loop of //reprolint:hotpath %s; "+
				"accumulate locally and publish once per stage, or annotate //reprolint:obs <justification>",
				lint.FuncDisplayName(fn), lint.DeclDisplayName(fd))
			return true
		})
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt:
			walkLoop(n.Body)
			return false
		case *ast.RangeStmt:
			walkLoop(n.Body)
			return false
		}
		return true
	})
}
