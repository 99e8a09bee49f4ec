// Package lint is the project's static-analysis framework, built on the
// standard library alone: an Analyzer runs over one type-checked package
// (a Pass) and reports findings through it.  Main turns a set of analyzers
// into a `go vet -vettool` binary; internal/analysis/linttest runs one
// analyzer over a fixture package.
//
// None of the project's analyzers needs results from another analyzer or
// facts about imported packages, so there is no dependency graph between
// analyzers and no fact export: each one walks the package's syntax trees
// with Preorder or WithStack and consults the type information.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer is one named check over a package.
type Analyzer struct {
	Name string
	Doc  string // one-line description, shown in the driver's usage
	Run  func(*Pass)
}

// A Pass is one package presented to an analyzer.
type Pass struct {
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{pos, fmt.Sprintf(format, args...)})
}

// Check type-checks files as the package path under conf and runs each
// analyzer over the result.  It returns the findings grouped by analyzer,
// in the order each analyzer reported them, or the first type error.
func Check(fset *token.FileSet, files []*ast.File, path string, conf *types.Config, analyzers []*Analyzer) ([]Diagnostic, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Instances:  make(map[*ast.Ident]types.Instance),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, err
	}
	var diags []Diagnostic
	for _, a := range analyzers {
		a.Run(&Pass{Fset: fset, Files: files, Pkg: pkg, TypesInfo: info, diags: &diags})
	}
	return diags, nil
}

// Preorder calls f for every node of type N in files, in depth-first
// preorder.
func Preorder[N ast.Node](files []*ast.File, f func(N)) {
	WithStack(files, func(n N, _ []ast.Node) { f(n) })
}

// WithStack is Preorder that also passes the path from the file down to
// the node: stack[0] is the *ast.File and stack[len(stack)-1] is n itself.
// The stack is reused between calls; f must not retain it.
func WithStack[N ast.Node](files []*ast.File, f func(n N, stack []ast.Node)) {
	var stack []ast.Node
	for _, file := range files {
		ast.Inspect(file, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			if m, ok := n.(N); ok {
				f(m, stack)
			}
			return true
		})
	}
}

// StaticCallee returns the function or concrete method a call statically
// invokes, or nil for builtins, conversions, calls through function values
// and interface method calls.
func StaticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch x := fun.(type) {
	case *ast.IndexExpr: // f[T](...)
		fun = x.X
	case *ast.IndexListExpr: // f[T1, T2](...)
		fun = x.X
	}
	var obj types.Object
	switch fun := fun.(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			obj = sel.Obj()
		} else {
			obj = info.Uses[fun.Sel] // package-qualified identifier
		}
	}
	f, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	if recv := f.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
		return nil
	}
	return f
}
