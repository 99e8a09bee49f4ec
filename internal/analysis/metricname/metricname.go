// Package metricname statically enforces the /metrics exposition contract
// that metrics_lint_test.go checks at runtime (and only for series that
// happen to be populated in that test):
//
//  1. Charset: every metric-name token in a string literal — anything
//     starting with the project prefix "refrint_" — must match
//     ^refrint_[a-z0-9_]*$ (the Prometheus name grammar [a-z_][a-z0-9_]*
//     with the project prefix).
//
//  2. Registration: a metric family emitted by the renderer must have a
//     paired `# HELP <name>` and `# TYPE <name>` declaration in the same
//     package.  Emission is recognized in two forms: a format literal
//     passed to an fmt Fprint-family call that begins a line with the
//     metric name (`"refrint_jobs{state=%q} %d\n"`), and a name literal
//     passed to a registrar — a function or closure whose own body
//     formats both "# HELP %s" and "# TYPE %s" (the renderer's
//     gauge/counter closures and writeHistogramFamily).  Registrar calls
//     count as declaration and emission at once.
//
// Name literals in other contexts (tests asserting on scrape output,
// documentation strings) get only the charset check.
package metricname

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"refrint/internal/analysis/directives"
	"refrint/internal/analysis/lint"
)

const name = "metricname"

var Analyzer = &lint.Analyzer{
	Name: name,
	Doc:  "check refrint_ metric-name charset and HELP/TYPE registration in the exposition renderer",
	Run:  run,
}

const prefix = "refrint_"

var validName = regexp.MustCompile(`^refrint_[a-z0-9_]*$`)

// nameToken extracts the maximal metric-name token at the start of s.
// Hyphens are included on purpose: they are never legal in a metric name,
// so "refrint_sims-per-second" must be captured whole to be rejected
// rather than truncated at the dash into a token that looks valid.
func nameToken(s string) string {
	i := 0
	for i < len(s) {
		c := s[i]
		if c == '_' || c == '-' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' {
			i++
			continue
		}
		break
	}
	return s[:i]
}

func run(pass *lint.Pass) {
	report := directives.Reporter(pass, name)
	registrars := findRegistrars(pass)

	// declared[name] is where "# HELP name" / "# TYPE name" appear;
	// emitted[name] is where a series line for name is produced.
	helpDecl := map[string]token.Pos{}
	typeDecl := map[string]token.Pos{}
	emitted := map[string]token.Pos{}

	note := func(m map[string]token.Pos, name string, pos token.Pos) {
		if _, ok := m[name]; !ok {
			m[name] = pos
		}
	}
	checkCharset := func(name string, pos token.Pos) {
		if !validName.MatchString(name) {
			report(pos, "metric name %q does not match %s (lowercase [a-z0-9_] with the refrint_ prefix)", name, validName)
		}
	}

	// scanLiteral classifies every refrint_ occurrence inside one string
	// literal.  emitting says the literal is a renderer format string.
	scanLiteral := func(lit *ast.BasicLit, emitting bool) {
		text, err := strconv.Unquote(lit.Value)
		if err != nil {
			return
		}
		for _, decl := range [2]struct {
			marker string
			m      map[string]token.Pos
		}{{"# HELP ", helpDecl}, {"# TYPE ", typeDecl}} {
			rest := text
			for {
				i := strings.Index(rest, decl.marker)
				if i < 0 {
					break
				}
				rest = rest[i+len(decl.marker):]
				name := nameToken(rest)
				if strings.HasPrefix(name, prefix) {
					checkCharset(name, lit.Pos())
					note(decl.m, name, lit.Pos())
				}
			}
		}
		// Series emissions: a refrint_ token at the start of the
		// literal or directly after a newline, not part of a
		// HELP/TYPE comment line.
		for _, line := range strings.Split(text, "\n") {
			if strings.HasPrefix(line, "# ") {
				continue
			}
			name := nameToken(line)
			if !strings.HasPrefix(name, prefix) {
				// Still charset-check any embedded token so a name
				// mentioned mid-string (tests, docs) is validated.
				if j := strings.Index(line, prefix); j >= 0 {
					checkCharset(nameToken(line[j:]), lit.Pos())
				}
				continue
			}
			checkCharset(name, lit.Pos())
			if emitting {
				note(emitted, name, lit.Pos())
			}
		}
	}

	// Literals consumed as call arguments must not be re-scanned when the
	// traversal descends into the call's children.
	seen := map[*ast.BasicLit]bool{}

	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING && !seen[lit] {
					scanLiteral(lit, false)
				}
				return true
			}
			emitting := isFprint(pass, call)
			registering := registrars[calleeObj(pass, call)]
			for _, arg := range call.Args {
				lit, ok := ast.Unparen(arg).(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					continue
				}
				seen[lit] = true
				if registering {
					if text, err := strconv.Unquote(lit.Value); err == nil && strings.HasPrefix(text, prefix) {
						name := nameToken(text)
						checkCharset(name, lit.Pos())
						note(helpDecl, name, lit.Pos())
						note(typeDecl, name, lit.Pos())
						note(emitted, name, lit.Pos())
						continue
					}
				}
				scanLiteral(lit, emitting)
			}
			// Literal args are consumed above; still descend for
			// nested calls.
			return true
		})
	}

	// An emitting package must declare what it emits, fully paired.
	names := make([]string, 0, len(emitted))
	for n := range emitted {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		_, h := helpDecl[n]
		_, t := typeDecl[n]
		if !h || !t {
			report(emitted[n], "metric %s is emitted without a paired # HELP and # TYPE declaration in this package", n)
		}
	}
	for n, pos := range helpDecl {
		if _, ok := typeDecl[n]; !ok {
			report(pos, "metric %s has # HELP but no # TYPE declaration", n)
		}
	}
	for n, pos := range typeDecl {
		if _, ok := helpDecl[n]; !ok {
			report(pos, "metric %s has # TYPE but no # HELP declaration", n)
		}
	}
}

// isFprint reports whether call is an fmt Fprint-family call (the renderer
// writes the exposition exclusively through these).
func isFprint(pass *lint.Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "fmt" {
		return false
	}
	return strings.HasPrefix(fn.Name(), "Fprint") || strings.HasPrefix(fn.Name(), "Sprint")
}

// calleeObj resolves the called object (function or closure-bound
// variable), or nil.
func calleeObj(pass *lint.Pass, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return pass.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		return pass.TypesInfo.Uses[fun.Sel]
	}
	return nil
}

// findRegistrars returns the set of objects (declared functions or
// variables bound to closures) whose body renders both "# HELP %s" and
// "# TYPE %s" — calling one with a name literal registers that family.
func findRegistrars(pass *lint.Pass) map[types.Object]bool {
	regs := map[types.Object]bool{}
	bodyRegisters := func(body *ast.BlockStmt) bool {
		help, typ := false, false
		ast.Inspect(body, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			if text, err := strconv.Unquote(lit.Value); err == nil {
				if strings.Contains(text, "# HELP %s") {
					help = true
				}
				if strings.Contains(text, "# TYPE %s") {
					typ = true
				}
			}
			return true
		})
		return help && typ
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil && bodyRegisters(n.Body) {
					regs[pass.TypesInfo.Defs[n.Name]] = true
				}
			case *ast.AssignStmt:
				for i, rhs := range n.Rhs {
					lit, ok := rhs.(*ast.FuncLit)
					if !ok || i >= len(n.Lhs) || !bodyRegisters(lit.Body) {
						continue
					}
					if id, ok := n.Lhs[i].(*ast.Ident); ok {
						if obj := pass.TypesInfo.Defs[id]; obj != nil {
							regs[obj] = true
						} else if obj := pass.TypesInfo.Uses[id]; obj != nil {
							regs[obj] = true
						}
					}
				}
			case *ast.ValueSpec:
				for i, v := range n.Values {
					if lit, ok := v.(*ast.FuncLit); ok && i < len(n.Names) && bodyRegisters(lit.Body) {
						regs[pass.TypesInfo.Defs[n.Names[i]]] = true
					}
				}
			}
			return true
		})
	}
	delete(regs, nil)
	return regs
}
