package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

var (
	// wantRe extracts the quoted regexps of one // want comment.
	wantRe = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"|` + "`([^`]*)`")
	// findingRe matches one file:line:col: message line of vet output.
	findingRe = regexp.MustCompile(`^(.+\.go):(\d+):\d+: (.*)$`)
)

// TestVetTool builds refrint-lint and drives it through `go vet -vettool`
// over a module holding the two analyzers' fixture packages: every
// `// want` line must be reported at its line with a matching message and
// the run must fail, while a clean package must pass.
func TestVetTool(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the tool and runs go vet")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go command not found")
	}
	tmp := t.TempDir()
	tool := filepath.Join(tmp, "refrint-lint")
	if out, err := exec.Command(goTool, "build", "-o", tool, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	mod := filepath.Join(tmp, "mod")
	writeFile(t, filepath.Join(mod, "go.mod"), "module fixtures\n\ngo 1.23\n")
	writeFile(t, filepath.Join(mod, "clean", "clean.go"), "package clean\n\nfunc Add(a, b int) int { return a + b }\n")
	wants := map[string][]*regexp.Regexp{} // "pkg/file.go:line" -> expected messages
	for _, a := range []string{"allocfree", "lockcheck"} {
		src := filepath.Join("..", "..", "internal", "analysis", a, "testdata", "src", "a")
		files, err := filepath.Glob(filepath.Join(src, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no fixture files under %s: %v", src, err)
		}
		for _, f := range files {
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			rel := a + "/" + filepath.Base(f)
			writeFile(t, filepath.Join(mod, filepath.FromSlash(rel)), string(data))
			collectWants(t, rel, string(data), wants)
		}
	}

	out, err := vet(goTool, tool, mod, "./...")
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) {
		t.Fatalf("go vet over the fixtures: err = %v, want a non-zero exit\n%s", err, out)
	}
	findings := 0
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		m := findingRe.FindStringSubmatch(sc.Text())
		if m == nil {
			continue // package headers such as "# fixtures/lockcheck"
		}
		findings++
		key := filepath.ToSlash(strings.TrimPrefix(m[1], "./")) + ":" + m[2]
		if !consume(wants, key, m[3]) {
			t.Errorf("unexpected finding %s: %s", key, m[3])
		}
	}
	var missed []string
	for key, res := range wants {
		for _, re := range res {
			if re != nil {
				missed = append(missed, fmt.Sprintf("%s: %q", key, re))
			}
		}
	}
	sort.Strings(missed)
	for _, m := range missed {
		t.Errorf("expected finding not reported at %s", m)
	}
	if findings == 0 {
		t.Errorf("go vet reported nothing:\n%s", out)
	}

	if out, err := vet(goTool, tool, mod, "./clean"); err != nil {
		t.Errorf("go vet over a clean package: %v\n%s", err, out)
	}
}

// vet runs go vet with tool over pkgs in the module at dir.
func vet(goTool, tool, dir string, pkgs ...string) (string, error) {
	cmd := exec.Command(goTool, append([]string{"vet", "-vettool=" + tool}, pkgs...)...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOFLAGS=", "GOWORK=off", "GOPROXY=off")
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// collectWants records the // want regexps of src, keyed by rel:line.
func collectWants(t *testing.T, rel, src string, wants map[string][]*regexp.Regexp) {
	t.Helper()
	for i, line := range strings.Split(src, "\n") {
		_, rest, ok := strings.Cut(line, "// want ")
		if !ok {
			continue
		}
		key := fmt.Sprintf("%s:%d", rel, i+1)
		for _, m := range wantRe.FindAllStringSubmatch(rest, -1) {
			lit := m[2]
			if m[2] == "" {
				var err error
				if lit, err = strconv.Unquote(`"` + m[1] + `"`); err != nil {
					t.Fatalf("bad want at %s: %v", key, err)
				}
			}
			wants[key] = append(wants[key], regexp.MustCompile(lit))
		}
	}
}

// consume marks the first unmatched expectation at key that msg satisfies.
func consume(wants map[string][]*regexp.Regexp, key, msg string) bool {
	for i, re := range wants[key] {
		if re != nil && re.MatchString(msg) {
			wants[key][i] = nil
			return true
		}
	}
	return false
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
