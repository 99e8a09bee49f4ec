// Package lockcheck enforces the repo's *Locked naming contract, the
// convention every mutex-guarded subsystem (server, sched, store, events)
// relies on:
//
//  1. A call to a function whose name ends in "Locked" must happen either
//     inside another *Locked function, or lexically after a mu.Lock() /
//     mu.RLock() that is still held at the call site (an un-deferred
//     Unlock in between releases it).
//
//  2. A *Locked function body must not block: no channel sends, receives,
//     selects or ranges, and no calls into packages that do I/O or
//     marshalling (net, net/http, os, io, bufio, os/exec, encoding/json),
//     nor time.Sleep / (*sync.WaitGroup).Wait.  This is the PR 7
//     handleMetrics bug — rendering /metrics while holding s.mu — turned
//     into a compile-time rule: snapshot under the lock, render outside.
//
// Intentional exceptions (e.g. the disk store, whose mutex guards an
// on-disk structure and therefore does I/O under it by design) carry an
// `//refrint:allow lockcheck -- reason` directive.
package lockcheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"refrint/internal/analysis/directives"
	"refrint/internal/analysis/lint"
)

const name = "lockcheck"

var Analyzer = &lint.Analyzer{
	Name: name,
	Doc:  "check that *Locked functions are called under the mutex and never block",
	Run:  run,
}

// blockingPkgs are packages whose calls block (I/O, network) or do heavy
// marshalling work that must not run under a hot mutex.
var blockingPkgs = map[string]bool{
	"net":           true,
	"net/http":      true,
	"os":            true,
	"os/exec":       true,
	"io":            true,
	"io/ioutil":     true,
	"bufio":         true,
	"encoding/json": true,
}

// blockingFuncs are individual functions outside those packages that block.
var blockingFuncs = map[string]bool{
	"time.Sleep":             true,
	"(*sync.WaitGroup).Wait": true,
}

// nonBlockingFuncs are pure predicates in otherwise-blocking packages.
var nonBlockingFuncs = map[string]bool{
	"os.IsNotExist":   true,
	"os.IsExist":      true,
	"os.IsPermission": true,
	"os.IsTimeout":    true,
	"os.Getenv":       true,
	"os.Getpid":       true,
}

func run(pass *lint.Pass) {
	report := directives.Reporter(pass, name)
	lint.Preorder(pass.Files, func(decl *ast.FuncDecl) {
		if decl.Body == nil {
			return
		}
		// A test named after the *Locked function it covers
		// (TestRollbackBatchLocked) is not itself a *Locked function.
		locked := isLockedName(decl.Name.Name) && !isTestFunc(pass, decl)
		// Each function literal is its own lexical scope for lock
		// tracking; the declaration body excludes nested literals.
		for _, scope := range splitScopes(decl.Body) {
			// Rule 1: *Locked calls need the mutex.  The body of a
			// *Locked declaration holds it by contract; a nested
			// literal does not inherit that (it may run later, on
			// another goroutine) unless it takes the lock itself.
			inherits := locked && scope.node == decl.Body
			checkLockedCalls(pass, report, scope, inherits)
		}
		// Rule 2 is about the declared contract, so it applies to the
		// whole body but not nested literals (they execute on their
		// own schedule and are checked at their own call sites).
		if locked {
			checkBlocking(pass, report, scopeBody(decl.Body))
		}
	})
}

func isLockedName(name string) bool {
	return strings.HasSuffix(name, "Locked")
}

// isTestFunc reports whether decl is a Test/Benchmark/Fuzz/Example function
// in a _test.go file.
func isTestFunc(pass *lint.Pass, decl *ast.FuncDecl) bool {
	if decl.Recv != nil {
		return false
	}
	n := decl.Name.Name
	if !strings.HasPrefix(n, "Test") && !strings.HasPrefix(n, "Benchmark") &&
		!strings.HasPrefix(n, "Fuzz") && !strings.HasPrefix(n, "Example") {
		return false
	}
	return strings.HasSuffix(pass.Fset.Position(decl.Pos()).Filename, "_test.go")
}

// scope is one lexical lock-tracking region: a function body with its
// nested function literals cut out.
type scope struct {
	node  ast.Node // *ast.BlockStmt (decl body) or *ast.FuncLit
	body  *ast.BlockStmt
	inner []*ast.FuncLit // direct nested literals, excluded from walks
}

// splitScopes returns the scope of body plus one scope per (transitively)
// nested function literal.
func splitScopes(body *ast.BlockStmt) []scope {
	var scopes []scope
	var build func(node ast.Node, b *ast.BlockStmt)
	build = func(node ast.Node, b *ast.BlockStmt) {
		s := scope{node: node, body: b}
		var nested []*ast.FuncLit
		ast.Inspect(b, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok && n != node {
				nested = append(nested, lit)
				return false
			}
			return true
		})
		s.inner = nested
		scopes = append(scopes, s)
		for _, lit := range nested {
			build(lit, lit.Body)
		}
	}
	build(body, body)
	return scopes
}

// scopeBody returns a scope for body excluding nested literals (used for
// the blocking-op walk, which does not recurse into literals).
func scopeBody(body *ast.BlockStmt) scope {
	s := scope{node: body, body: body}
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			s.inner = append(s.inner, lit)
			return false
		}
		return true
	})
	return s
}

// walk visits the scope's own nodes, skipping nested function literals.
func (s scope) walk(fn func(ast.Node) bool) {
	skip := make(map[ast.Node]bool, len(s.inner))
	for _, lit := range s.inner {
		skip[lit] = true
	}
	ast.Inspect(s.body, func(n ast.Node) bool {
		if n == nil || skip[n] {
			return false
		}
		return fn(n)
	})
}

// lockEvent is one mutex transition in lexical order.  end is the extent of
// the event's innermost enclosing block: the event is visible only to
// positions inside that block, so an early-exit Unlock inside an error
// branch (`if bad { mu.Unlock(); return }`) does not release the lock for
// the fall-through path, and a Lock taken inside a branch does not cover
// code after it.
type lockEvent struct {
	pos   token.Pos
	end   token.Pos
	delta int // +1 Lock/RLock, -1 un-deferred Unlock/RUnlock
}

// blockExtents collects the extents of every statement-list node in the
// scope (block statements plus switch/select clause bodies).
func blockExtents(s scope) [][2]token.Pos {
	extents := [][2]token.Pos{{s.body.Pos(), s.body.End()}}
	s.walk(func(n ast.Node) bool {
		switch n.(type) {
		case *ast.BlockStmt, *ast.CaseClause, *ast.CommClause:
			extents = append(extents, [2]token.Pos{n.Pos(), n.End()})
		}
		return true
	})
	return extents
}

// innermostEnd returns the end of the smallest extent containing pos.
func innermostEnd(extents [][2]token.Pos, pos token.Pos) token.Pos {
	best := extents[0]
	for _, e := range extents[1:] {
		if e[0] <= pos && pos < e[1] && e[1]-e[0] < best[1]-best[0] {
			best = e
		}
	}
	return best[1]
}

// checkLockedCalls enforces rule 1 within one scope.
func checkLockedCalls(pass *lint.Pass, report func(token.Pos, string, ...any), s scope, inheritsLock bool) {
	type lockedCall struct {
		pos  token.Pos
		name string
	}
	var events []lockEvent
	var calls []lockedCall
	extents := blockExtents(s)

	s.walk(func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			// `defer mu.Unlock()` keeps the lock held for the rest
			// of the scope: record no release event.  Anything else
			// deferred is irrelevant to lexical tracking.
			return false
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if ok {
				switch sel.Sel.Name {
				case "Lock", "RLock":
					events = append(events, lockEvent{n.Pos(), innermostEnd(extents, n.Pos()), +1})
					return true
				case "Unlock", "RUnlock":
					events = append(events, lockEvent{n.Pos(), innermostEnd(extents, n.Pos()), -1})
					return true
				}
			}
			if name := calleeName(n); isLockedName(name) {
				calls = append(calls, lockedCall{n.Pos(), name})
			}
		}
		return true
	})

	if inheritsLock || len(calls) == 0 {
		return
	}
	sort.Slice(calls, func(i, j int) bool { return calls[i].pos < calls[j].pos })

	for _, c := range calls {
		held := 0
		for _, e := range events {
			if e.pos < c.pos && c.pos < e.end {
				held += e.delta
			}
		}
		if held <= 0 {
			report(c.pos, "call to %s without holding the mutex: wrap in mu.Lock()/defer mu.Unlock() or call from a *Locked function", c.name)
		}
	}
}

// calleeName returns the bare name of a called function or method, or "".
func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// checkBlocking enforces rule 2 over one *Locked body.
func checkBlocking(pass *lint.Pass, report func(token.Pos, string, ...any), s scope) {
	s.walk(func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			report(n.Pos(), "channel send inside a *Locked function may block while the mutex is held")
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				report(n.Pos(), "channel receive inside a *Locked function may block while the mutex is held")
			}
		case *ast.SelectStmt:
			report(n.Pos(), "select inside a *Locked function may block while the mutex is held")
		case *ast.RangeStmt:
			if t := pass.TypesInfo.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					report(n.Pos(), "range over a channel inside a *Locked function blocks while the mutex is held")
				}
			}
		case *ast.CallExpr:
			fn := lint.StaticCallee(pass.TypesInfo, n)
			if fn == nil {
				// Interface method: resolve through Uses so e.g.
				// http.ResponseWriter.Write is still attributed.
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
					if f, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func); ok {
						fn = f
					}
				}
			}
			if fn == nil {
				return true
			}
			full := fn.FullName()
			if nonBlockingFuncs[full] {
				return true
			}
			pkg := fn.Pkg()
			if (pkg != nil && blockingPkgs[pkg.Path()]) || blockingFuncs[full] {
				report(n.Pos(), "%s inside a *Locked function: blocking or marshalling work must not run while the mutex is held (snapshot under the lock, do the work outside)", full)
			}
		}
		return true
	})
}
