// Package analysis is reprolint's checker suite: six invariant
// analyzers that machine-check the contracts the synthesis pipeline
// otherwise enforces only by convention — the same move the paper makes
// when it replaces designer judgement with the machine-checkable MC
// requirement, applied to our own implementation.
//
// Syntactic (per-package) analyzers:
//
//   - hotalloc: //reprolint:hotpath functions must stay allocation-lean
//     and the known hot paths must carry the marker (escape:
//     //reprolint:alloc <why>);
//   - obssafe: observability goes through the nil-safe obs entry
//     points and publishes once per stage, never per hot-loop iteration
//     (escape: //reprolint:obs <why>);
//   - parpool: fan-out goes through internal/par with index-disjoint
//     result writes, never raw goroutines (escape: //reprolint:go <why>);
//   - cachekey: every exported field of a struct with *FP() fingerprint
//     methods must appear in a fingerprint string (escape:
//     //reprolint:nonsemantic <why>).
//
// Interprocedural (fact-propagating) analyzers — these run over every
// loaded package in import order and chase properties through the CHA
// call graph (see internal/analysis/lint and DESIGN.md §13):
//
//   - determinism2: reproducible packages must not iterate maps bare or
//     read clocks/PRNGs, and no call chain from them may reach such a
//     construct, even through helper packages (escape:
//     //reprolint:ordered <why>);
//   - lockdiscipline: no call that can block — channel ops, Wait,
//     interface I/O, dynamic callbacks — while a sync.Mutex/RWMutex is
//     held (escape: //reprolint:lock <why>).
//
// Escape comments annotate the offending line (trailing or directly
// above) and must carry a justification; a bare escape suppresses
// nothing and is itself reported.
package analysis

import (
	"go/ast"
	"strings"

	"repro/internal/analysis/lint"
)

// escaped applies the shared escape protocol for one potential finding:
// a justified //reprolint:<name> on the node's line (or the line above)
// waives it; a bare one waives nothing and is reported as its own
// diagnostic, at the node so both findings land on the annotated line.
func escaped(pass *lint.Pass, dirs *lint.DirectiveIndex, node ast.Node, name string) bool {
	esc, bare := dirs.Escaped(node, name)
	if bare {
		pass.Reportf(node.Pos(), "//reprolint:%s escape needs a justification", name)
	}
	return esc
}

// Suite returns the six analyzers with the package scope each one
// patrols in this repository. Analyzers themselves are scope-free (the
// analysistest fixtures run them on arbitrary packages); the pairing
// here is what cmd/reprolint enforces. For interprocedural analyzers
// the scope gates only reporting: facts are computed for every loaded
// package regardless.
func Suite() []lint.ScopedAnalyzer {
	inModule := func(path string) bool {
		return path == "repro" || strings.HasPrefix(path, "repro/")
	}
	return []lint.ScopedAnalyzer{
		{Analyzer: DeterminismV2, Scope: func(p string) bool { return DeterministicScope[p] }},
		{Analyzer: HotAlloc, Scope: inModule},
		{Analyzer: ObsSafe, Scope: inModule},
		{Analyzer: ParPool, Scope: func(p string) bool {
			// The pool implementation is the one place raw goroutines
			// belong; everything else in the module fans out through it.
			return inModule(p) && p != "repro/internal/par"
		}},
		{Analyzer: CacheKey, Scope: func(p string) bool { return CacheKeyScope[p] }},
		{Analyzer: LockDiscipline, Scope: func(p string) bool { return LockDisciplineScope[p] }},
	}
}
