// Package atomicfield enforces all-or-nothing atomicity on struct fields,
// package-scoped:
//
//  1. A plain integer/pointer field that is ever accessed through a
//     sync/atomic call (`atomic.AddInt64(&s.n, 1)`, CAS loops, ...) must
//     be accessed that way everywhere in the package: a bare read `s.n`
//     or write `s.n = v` elsewhere is a data race waiting for the race
//     detector to get lucky.
//
//  2. A field of a typed atomic (atomic.Int64, atomic.Uint64, atomic.Bool,
//     atomic.Pointer[T], atomic.Value, ...) may only be used as a method
//     call receiver or have its address taken — copying the value
//     (`x := e.done`, passing by value) silently forks the counter and
//     defeats the CAS discipline (the lock-free progress path of PR 5
//     depends on exactly this not happening).
//
// The analyzer is package-scoped on purpose: unexported fields cannot be
// touched from outside, and every atomic field in this repo is unexported.
package atomicfield

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"refrint/internal/analysis/directives"
	"refrint/internal/analysis/lint"
)

const name = "atomicfield"

var Analyzer = &lint.Analyzer{
	Name: name,
	Doc:  "check that fields accessed via sync/atomic are never read or written non-atomically in the package",
	Run:  run,
}

func run(pass *lint.Pass) {
	report := directives.Reporter(pass, name)

	// Pass 1: find fields whose address flows into a sync/atomic call,
	// and remember the sanctioned &x.f nodes themselves.
	atomicFields := map[*types.Var]token.Pos{} // field -> first atomic use
	sanctioned := map[ast.Node]bool{}          // the &x.f (and x.f) nodes inside atomic calls

	lint.Preorder(pass.Files, func(call *ast.CallExpr) {
		fn := atomicCallee(pass, call)
		if fn == nil {
			return
		}
		for _, arg := range call.Args {
			un, ok := ast.Unparen(arg).(*ast.UnaryExpr)
			if !ok || un.Op != token.AND {
				continue
			}
			sel, ok := ast.Unparen(un.X).(*ast.SelectorExpr)
			if !ok {
				continue
			}
			if v := fieldOf(pass, sel); v != nil {
				if _, seen := atomicFields[v]; !seen {
					atomicFields[v] = call.Pos()
				}
				sanctioned[un] = true
				sanctioned[sel] = true
			}
		}
	})

	// Pass 2a: every other access to those fields must be atomic.
	type finding struct {
		pos token.Pos
		msg string
	}
	var findings []finding
	lint.Preorder(pass.Files, func(sel *ast.SelectorExpr) {
		if sanctioned[sel] {
			return
		}
		v := fieldOf(pass, sel)
		if v == nil {
			return
		}
		if first, ok := atomicFields[v]; ok {
			findings = append(findings, finding{sel.Pos(),
				posf(pass, "field %s is accessed atomically (e.g. at %s) but read or written directly here; use sync/atomic for every access", v.Name(), first)})
		}
	})

	// Pass 2b: typed atomics may not be copied.
	lint.WithStack(pass.Files, func(sel *ast.SelectorExpr, stack []ast.Node) {
		v := fieldOf(pass, sel)
		if v == nil || !isTypedAtomic(v.Type()) {
			return
		}
		switch parent := stack[len(stack)-2].(type) {
		case *ast.SelectorExpr:
			// x.f.Load() — the atomic selector is the X of a method
			// selector.  (Typed atomics have no exported fields, so
			// any deeper selection is a method.)
			if parent.X == sel {
				return
			}
		case *ast.UnaryExpr:
			// &x.f keeps pointer semantics.
			if parent.Op == token.AND {
				return
			}
		}
		findings = append(findings, finding{sel.Pos(),
			"atomic value " + v.Name() + " (" + v.Type().String() + ") must not be copied or reassigned; call its methods or take its address"})
	})

	sort.Slice(findings, func(i, j int) bool { return findings[i].pos < findings[j].pos })
	for _, f := range findings {
		report(f.pos, "%s", f.msg)
	}
}

// atomicCallee returns the called sync/atomic package function taking an
// address argument, or nil.
func atomicCallee(pass *lint.Pass, call *ast.CallExpr) *types.Func {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return nil
	}
	// Only the free functions take &addr; typed-atomic methods are safe
	// by construction.
	if fn.Type().(*types.Signature).Recv() != nil {
		return nil
	}
	return fn
}

// fieldOf resolves sel to the struct field it selects, or nil.
func fieldOf(pass *lint.Pass, sel *ast.SelectorExpr) *types.Var {
	s, ok := pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil
	}
	return s.Obj().(*types.Var)
}

// isTypedAtomic reports whether t is one of sync/atomic's typed values.
func isTypedAtomic(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		// atomic.Pointer[T] instantiations are *types.Named too; an
		// alias would have been resolved by Type().
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic" &&
		strings.HasPrefix(obj.Name(), strings.ToUpper(obj.Name()[:1])) // exported type
}

// posf formats a message with a secondary position rendered relative to
// the pass's fileset.
func posf(pass *lint.Pass, format string, name string, at token.Pos) string {
	return fmt.Sprintf(format, name, pass.Fset.Position(at).String())
}
