// Package linttest is the project's analyzer test harness.  A fixture is a
// `testdata/src/<pkg>` tree whose sources carry `// want "regexp"`
// comments on the lines expected to be flagged (the convention of the Go
// analysis framework's analysistest).  Fixtures are single-package and
// import only the standard library, so parsing with go/parser and
// type-checking with the GOROOT source importer is enough.
package linttest

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"refrint/internal/analysis/lint"
)

// Run loads the fixture package at testdata/src/<pkg> (relative to the
// test's working directory), runs a on it, and asserts that the reported
// diagnostics exactly match the fixture's // want comments.
func Run(t *testing.T, a *lint.Analyzer, pkg string) {
	t.Helper()
	dir := filepath.Join("testdata", "src", pkg)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("linttest: %v", err)
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("linttest: parse: %v", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		t.Fatalf("linttest: no Go files under %s", dir)
	}

	conf := &types.Config{
		Importer: importer.ForCompiler(fset, "source", nil),
		Error:    func(err error) { t.Errorf("linttest: type error: %v", err) },
	}
	diags, err := lint.Check(fset, files, files[0].Name.Name, conf, []*lint.Analyzer{a})
	if err != nil {
		t.Fatalf("linttest: type-check: %v", err)
	}

	checkWants(t, fset, files, diags)
}

// wantRe extracts the quoted regexps of one // want comment.
var wantRe = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"|` + "`([^`]*)`")

// checkWants compares diagnostics against // want comments, analysistest
// style: every diagnostic must be expected on its line, every expectation
// must fire exactly once.
func checkWants(t *testing.T, fset *token.FileSet, files []*ast.File, diags []lint.Diagnostic) {
	t.Helper()
	type key struct {
		file string
		line int
	}
	wants := make(map[key][]*regexp.Regexp)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				i := strings.Index(text, "// want ")
				if i < 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				k := key{pos.Filename, pos.Line}
				for _, m := range wantRe.FindAllStringSubmatch(text[i+len("// want "):], -1) {
					lit := m[1]
					if m[2] != "" {
						lit = m[2]
					} else {
						var err error
						lit, err = strconv.Unquote(`"` + lit + `"`)
						if err != nil {
							t.Fatalf("linttest: bad want at %s: %v", pos, err)
						}
					}
					re, err := regexp.Compile(lit)
					if err != nil {
						t.Fatalf("linttest: bad want regexp at %s: %v", pos, err)
					}
					wants[k] = append(wants[k], re)
				}
			}
		}
	}

	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		k := key{pos.Filename, pos.Line}
		matched := false
		for i, re := range wants[k] {
			if re != nil && re.MatchString(d.Message) {
				wants[k][i] = nil // consume
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
		}
	}
	var keys []key
	for k := range wants {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].file != keys[j].file {
			return keys[i].file < keys[j].file
		}
		return keys[i].line < keys[j].line
	})
	for _, k := range keys {
		for _, re := range wants[k] {
			if re != nil {
				t.Errorf("%s:%d: expected diagnostic matching %q was not reported", k.file, k.line, re)
			}
		}
	}
}
