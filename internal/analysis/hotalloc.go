package analysis

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis/lint"
)

// HotAlloc keeps the marked hot paths allocation-lean: inside functions
// carrying a //reprolint:hotpath marker it flags fmt calls and
// capturing closures anywhere, and per-iteration allocators — appends
// that grow a nil-declared slice, integer/bool arguments boxed into
// interface parameters — inside loops. It also demands the marker on
// the known hot paths (RequiredHotpaths) so the protection cannot
// silently rot when a function is renamed or rewritten.
var HotAlloc = &lint.Analyzer{
	Name: "hotalloc",
	Doc: "flags allocating constructs (fmt calls, capturing closures, nil-slice append " +
		"and interface boxing in loops) inside //reprolint:hotpath functions and requires " +
		"the marker on the known hot paths; escape with //reprolint:alloc <justification>",
	Run: runHotAlloc,
}

const (
	hotpathMarker = "hotpath"
	allocEscape   = "alloc"
)

// RequiredHotpaths names the functions (package path → display names,
// methods as "Recv.Name") that must carry the //reprolint:hotpath
// marker: the five engines whose per-iteration behaviour the benchmark
// pipeline tracks. Tests may override this to point at fixtures.
var RequiredHotpaths = map[string][]string{
	"repro/internal/stg":    {"explore"},                 // reachability token game
	"repro/internal/sg":     {"Index.labelRegions"},      // every signal's region labels
	"repro/internal/verify": {"CheckLimit"},              // composed-state exploration
	"repro/internal/core":   {"Analyzer.dropKeepsCover"}, // cover-shrinking MC verdicts
	"repro/internal/sat":    {"Solver.propagate"},        // unit propagation
}

func runHotAlloc(pass *lint.Pass) error {
	required := map[string]bool{}
	for _, name := range RequiredHotpaths[pass.Pkg.Path()] {
		required[name] = true
	}
	for _, file := range pass.Files {
		dirs := lint.FileDirectives(pass.Fset, file)
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			name := lint.DeclDisplayName(fd)
			marked := lint.HasMarker(pass.Fset, fd, hotpathMarker)
			if required[name] {
				delete(required, name)
				if !marked {
					pass.Reportf(fd.Pos(), "%s is a known hot path and must carry a //reprolint:hotpath marker", name)
				}
			}
			if marked {
				checkHotFunc(pass, dirs, fd)
			}
		}
	}
	for name := range required {
		// Reported at the package clause of the first file: the list in
		// RequiredHotpaths names a function this package no longer has.
		pass.Reportf(pass.Files[0].Name.Pos(),
			"known hot path %s not found in %s; update it or analysis.RequiredHotpaths", name, pass.Pkg.Path())
	}
	return nil
}

// checkHotFunc walks one //reprolint:hotpath function body.
func checkHotFunc(pass *lint.Pass, dirs *lint.DirectiveIndex, fd *ast.FuncDecl) {
	allocEscaped := func(n ast.Node) bool { return escaped(pass, dirs, n, allocEscape) }

	// Loop body spans of the function itself (not of nested literals —
	// those are flagged wholesale as capturing closures).
	var loops []ast.Node
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ForStmt:
			loops = append(loops, n.Body)
		case *ast.RangeStmt:
			loops = append(loops, n.Body)
		}
		return true
	})
	inLoop := func(pos token.Pos) bool {
		for _, l := range loops {
			if l.Pos() <= pos && pos < l.End() {
				return true
			}
		}
		return false
	}

	nilSlices := nilSliceVars(pass, fd)

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if capt := captures(pass, fd, n); capt != "" && !allocEscaped(n) {
				pass.Reportf(n.Pos(), "func literal captures %s and allocates a closure on a "+
					"//reprolint:hotpath function; hoist it or annotate //reprolint:alloc <justification>", capt)
			}
			return false
		case *ast.CallExpr:
			checkHotCall(pass, n, allocEscaped, inLoop, nilSlices)
		}
		return true
	})
}

// checkHotCall applies the call-site rules of the hotalloc analyzer.
func checkHotCall(pass *lint.Pass, call *ast.CallExpr, escaped func(ast.Node) bool, inLoop func(token.Pos) bool, nilSlices map[types.Object]bool) {
	if fn := lint.Callee(pass.TypesInfo, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		if !escaped(call) {
			pass.Reportf(call.Pos(), "fmt.%s allocates on a //reprolint:hotpath function; hoist the "+
				"formatting off the hot path or annotate //reprolint:alloc <justification>", fn.Name())
		}
		return
	}
	if !inLoop(call.Pos()) {
		return
	}
	// append growing a slice that was declared nil: every first append
	// re-allocates the backing array, and growth in a hot loop is the
	// classic per-iteration allocator.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin && id.Name == "append" && len(call.Args) > 0 {
			if arg, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok && nilSlices[pass.TypesInfo.Uses[arg]] {
				if !escaped(call) {
					pass.Reportf(call.Pos(), "append grows nil-declared slice %s inside a hot loop; "+
						"preallocate with make (or accept growth with //reprolint:alloc <justification>)", arg.Name)
				}
			}
			return
		}
	}
	checkBoxing(pass, call, escaped)
}

// checkBoxing flags non-constant integer/bool arguments passed to
// interface parameters inside hot loops — each such call boxes the
// value onto the heap.
func checkBoxing(pass *lint.Pass, call *ast.CallExpr, escaped func(ast.Node) bool) {
	if tv, ok := pass.TypesInfo.Types[call.Fun]; !ok || tv.IsType() {
		return // conversion, not a call
	}
	sigType := pass.TypesInfo.TypeOf(call.Fun)
	if sigType == nil {
		return
	}
	sig, ok := sigType.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case i < params.Len()-1 || (i == params.Len()-1 && !sig.Variadic()):
			pt = params.At(i).Type()
		case params.Len() > 0:
			last := params.At(params.Len() - 1).Type()
			if sl, ok := last.(*types.Slice); ok {
				pt = sl.Elem()
			}
		}
		if pt == nil {
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		atv, ok := pass.TypesInfo.Types[arg]
		if !ok || atv.Value != nil { // constants don't pay a runtime box
			continue
		}
		basic, ok := atv.Type.Underlying().(*types.Basic)
		if !ok || basic.Info()&(types.IsInteger|types.IsBoolean) == 0 {
			continue
		}
		if !escaped(call) {
			pass.Reportf(arg.Pos(), "argument %s boxes into an interface parameter inside a hot loop; "+
				"avoid the conversion or annotate //reprolint:alloc <justification>", exprString(pass, arg))
		}
	}
}

// nilSliceVars collects the variables of fd declared as nil slices:
// `var x []T` value specs and named slice results.
func nilSliceVars(pass *lint.Pass, fd *ast.FuncDecl) map[types.Object]bool {
	out := map[types.Object]bool{}
	add := func(id *ast.Ident) {
		if obj := pass.TypesInfo.Defs[id]; obj != nil {
			if _, ok := obj.Type().Underlying().(*types.Slice); ok {
				out[obj] = true
			}
		}
	}
	if fd.Type.Results != nil {
		for _, field := range fd.Type.Results.List {
			for _, name := range field.Names {
				add(name)
			}
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		spec, ok := n.(*ast.ValueSpec)
		if !ok || len(spec.Values) > 0 {
			return true
		}
		for _, name := range spec.Names {
			add(name)
		}
		return true
	})
	return out
}

// captures returns the name of one variable a func literal captures
// from the enclosing function (empty when it captures nothing that
// forces a heap-allocated closure).
func captures(pass *lint.Pass, fd *ast.FuncDecl, lit *ast.FuncLit) string {
	found := ""
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if found != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || obj.IsField() {
			return true
		}
		if obj.Parent() == pass.Pkg.Scope() {
			return true // package-level variable: no closure cell
		}
		// Captured iff declared in the enclosing function but outside
		// the literal.
		if obj.Pos() >= fd.Pos() && obj.Pos() < fd.End() && (obj.Pos() < lit.Pos() || obj.Pos() >= lit.End()) {
			found = obj.Name()
			return false
		}
		return true
	})
	return found
}

// exprString renders a short source form of an expression for messages.
func exprString(pass *lint.Pass, e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(pass, e.X) + "." + e.Sel.Name
	case *ast.CallExpr:
		return exprString(pass, e.Fun) + "(...)"
	case *ast.IndexExpr:
		return exprString(pass, e.X) + "[...]"
	default:
		return "value"
	}
}
