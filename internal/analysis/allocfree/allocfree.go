// Package allocfree statically rejects allocating constructs inside
// functions annotated `//refrint:alloc-free` — the static complement of
// the testing.AllocsPerRun pins (PR 3/5/7) on the repo's hot paths: the
// simulator's steady-state access resolution, the scheduler's
// submit/dequeue cycle, the per-sim progress CAS callback, histogram
// Observe and the HTTP metrics middleware.  AllocsPerRun catches a
// regression when the benchmark runs; this analyzer catches it when the
// file is saved.
//
// Flagged inside an annotated body:
//
//   - map and slice composite literals, make, new, &T{...}
//   - growing append (append whose first argument is not a reslice like
//     s[:0] or s[:i] — the non-allocating reset/delete idioms are allowed)
//   - function literals that capture enclosing local variables (closure
//     allocation); capture-free literals are static values and pass
//   - string concatenation and string<->[]byte/[]rune conversions
//   - conversions of concrete values to interface types (boxing)
//   - any call into fmt (formats and boxes on every call)
//   - method values (bound-method closures) and go statements
//
// Calls to other functions are not followed: the annotation is
// per-function and deliberately lexical, so each hot function on a call
// chain carries its own pragma.  A construct that is provably cold or
// amortized (e.g. one-time warm-up growth) can be waived with
// `//refrint:allow allocfree -- reason`.
package allocfree

import (
	"go/ast"
	"go/token"
	"go/types"

	"refrint/internal/analysis/directives"
	"refrint/internal/analysis/lint"
)

const name = "allocfree"

var Analyzer = &lint.Analyzer{
	Name: name,
	Doc:  "reject allocating constructs in functions annotated //refrint:alloc-free",
	Run:  run,
}

func run(pass *lint.Pass) {
	for _, file := range pass.Files {
		dirs := directives.Parse(pass.Fset, file)
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil && directives.HasAllocFree(n.Doc) {
					check(pass, dirs, n.Name.Name, n.Body, n.Type)
				}
			case *ast.FuncLit:
				if dirs.AllocFreeAt(n.Pos()) {
					check(pass, dirs, "function literal", n.Body, n.Type)
				}
			}
			return true
		})
	}
}

// check walks one annotated body, skipping nested function literals (their
// construction is judged here, their own body only if annotated itself).
func check(pass *lint.Pass, dirs *directives.Map, fname string, body *ast.BlockStmt, _ *ast.FuncType) {
	report := func(pos token.Pos, format string, args ...any) {
		if dirs.Allowed(name, pos) {
			return
		}
		pass.Reportf(pos, format+" in alloc-free function %s", append(args, fname)...)
	}

	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if capturesLocals(pass, n) {
				report(n.Pos(), "function literal captures enclosing variables (closure allocation)")
			}
			return false // body runs on its own schedule
		case *ast.GoStmt:
			report(n.Pos(), "go statement allocates a goroutine")
		case *ast.CompositeLit:
			switch pass.TypesInfo.TypeOf(n).Underlying().(type) {
			case *types.Map:
				report(n.Pos(), "map literal allocates")
			case *types.Slice:
				report(n.Pos(), "slice literal allocates")
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					report(n.Pos(), "address of composite literal escapes to the heap")
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isString(pass.TypesInfo.TypeOf(n)) {
				report(n.Pos(), "string concatenation allocates")
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isString(pass.TypesInfo.TypeOf(n.Lhs[0])) {
				report(n.Pos(), "string concatenation allocates")
			}
		case *ast.SelectorExpr:
			// A method value (x.M used as a value, not called) binds
			// the receiver into a fresh closure.
			if sel, ok := pass.TypesInfo.Selections[n]; ok && sel.Kind() == types.MethodVal {
				report(n.Pos(), "method value allocates a bound-method closure")
			}
		case *ast.CallExpr:
			checkCall(pass, report, n)
			// Dig into arguments but not into the Fun selector (a
			// called method is not a method value).
			for _, arg := range n.Args {
				ast.Inspect(arg, walk)
			}
			if fun, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
				ast.Inspect(fun.X, walk)
			}
			return false
		}
		return true
	}
	ast.Inspect(body, walk)
}

// checkCall classifies one call inside an annotated body.
func checkCall(pass *lint.Pass, report func(token.Pos, string, ...any), call *ast.CallExpr) {
	info := pass.TypesInfo

	// Conversion T(x)?
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		dst := tv.Type
		src := info.TypeOf(call.Args[0])
		if src == nil {
			return
		}
		if types.IsInterface(dst) && !types.IsInterface(src) {
			report(call.Pos(), "conversion to interface type %s boxes its operand", dst)
		}
		if convAllocates(dst, src) {
			report(call.Pos(), "conversion between string and byte/rune slice copies and allocates")
		}
		return
	}

	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if b, ok := info.Uses[fun].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				report(call.Pos(), "make allocates")
			case "new":
				report(call.Pos(), "new allocates")
			case "append":
				if len(call.Args) > 0 {
					if _, reslice := ast.Unparen(call.Args[0]).(*ast.SliceExpr); !reslice {
						report(call.Pos(), "growing append may allocate (reslice idioms like append(s[:0], ...) are exempt)")
					}
				}
			}
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok && f.Pkg() != nil && f.Pkg().Path() == "fmt" {
			report(call.Pos(), "call to %s formats and boxes (allocates)", f.FullName())
		}
	}
}

// capturesLocals reports whether lit references a variable declared in an
// enclosing function (true closure capture; package-level and
// literal-internal references are free).
func capturesLocals(pass *lint.Pass, lit *ast.FuncLit) bool {
	captured := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || captured {
			return !captured
		}
		v, ok := pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		// Package-level variables are addressed statically.
		if v.Parent() == nil || v.Parent().Parent() == types.Universe {
			return true
		}
		// Declared outside the literal's extent -> captured.
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			captured = true
		}
		return true
	})
	return captured
}

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// convAllocates reports whether a conversion between dst and src copies
// backing memory (string <-> []byte / []rune).
func convAllocates(dst, src types.Type) bool {
	return (isString(dst) && isByteOrRuneSlice(src)) || (isByteOrRuneSlice(dst) && isString(src))
}

func isByteOrRuneSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}
