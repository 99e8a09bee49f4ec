// Package directives parses the project's //refrint: source pragmas, the
// annotation layer shared by every analyzer in internal/analysis:
//
//	//refrint:alloc-free
//	    Marks the function declaration (doc comment) or function literal
//	    (comment on the same or preceding line) it annotates as an
//	    allocation-free hot path.  The allocfree analyzer rejects
//	    allocating constructs inside annotated bodies.
//
//	//refrint:allow <analyzer>[,<analyzer>...] -- <reason>
//	    Suppresses findings of the named analyzers on the same line and
//	    the line directly below.  The reason is mandatory by convention:
//	    a suppression without a why does not survive review.
//
// Pragmas follow the Go directive comment shape (`//tool:verb`, no space
// after the slashes), so gofmt leaves them alone.
package directives

import (
	"go/ast"
	"go/token"
	"strings"

	"refrint/internal/analysis/lint"
)

// prefix is the common directive namespace.
const prefix = "refrint:"

// Map holds the parsed directives of one file, keyed by source line.
type Map struct {
	fset *token.FileSet
	// allow maps a line number to the set of analyzer names whose
	// findings are suppressed on that line and the next.
	allow map[int]map[string]bool
	// allocFree holds the lines carrying an alloc-free annotation.
	allocFree map[int]bool
}

// Parse scans every comment in file and returns its directive map.
func Parse(fset *token.FileSet, file *ast.File) *Map {
	m := &Map{
		fset:      fset,
		allow:     make(map[int]map[string]bool),
		allocFree: make(map[int]bool),
	}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, "//"+prefix)
			if !ok {
				continue
			}
			line := fset.Position(c.Pos()).Line
			switch {
			case text == "alloc-free" || strings.HasPrefix(text, "alloc-free "):
				m.allocFree[line] = true
			case strings.HasPrefix(text, "allow "):
				names := strings.TrimPrefix(text, "allow ")
				if i := strings.Index(names, "--"); i >= 0 {
					names = names[:i]
				}
				set := m.allow[line]
				if set == nil {
					set = make(map[string]bool)
					m.allow[line] = set
				}
				for _, n := range strings.Split(names, ",") {
					if n = strings.TrimSpace(n); n != "" {
						set[n] = true
					}
				}
			}
		}
	}
	return m
}

// Reporter returns pass.Reportf filtered through the //refrint:allow
// directives of the pass's files: findings of the named analyzer that a
// directive suppresses are dropped.
func Reporter(pass *lint.Pass, analyzer string) func(pos token.Pos, format string, args ...any) {
	dirs := make([]*Map, len(pass.Files))
	for i, f := range pass.Files {
		dirs[i] = Parse(pass.Fset, f)
	}
	return func(pos token.Pos, format string, args ...any) {
		for i, f := range pass.Files {
			if f.FileStart <= pos && pos < f.FileEnd && dirs[i].Allowed(analyzer, pos) {
				return
			}
		}
		pass.Reportf(pos, format, args...)
	}
}

// Allowed reports whether findings of the named analyzer are suppressed at
// pos: an //refrint:allow directive sits on the same line or the line above.
func (m *Map) Allowed(analyzer string, pos token.Pos) bool {
	line := m.fset.Position(pos).Line
	return m.allow[line][analyzer] || m.allow[line-1][analyzer]
}

// AllocFreeAt reports whether an //refrint:alloc-free directive annotates a
// node starting at pos — the directive sits on the node's own line or the
// line directly above (the form used for function literals).
func (m *Map) AllocFreeAt(pos token.Pos) bool {
	line := m.fset.Position(pos).Line
	return m.allocFree[line] || m.allocFree[line-1]
}

// HasAllocFree reports whether a function declaration's doc comment carries
// the alloc-free annotation.
func HasAllocFree(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		text := strings.TrimPrefix(c.Text, "//")
		if text == prefix+"alloc-free" || strings.HasPrefix(text, prefix+"alloc-free ") {
			return true
		}
	}
	return false
}
