package refrint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// interfaceMethods are method names that standard interfaces call, so a
// method with one of them is used even when no file of the module names it.
var interfaceMethods = map[string]bool{
	"String":      true, // fmt.Stringer
	"Error":       true, // error
	"MarshalText": true, // encoding.TextMarshaler
	"ServeHTTP":   true, // http.Handler
	"Enabled":     true, // slog.Handler
	"Handle":      true, // slog.Handler
	"WithAttrs":   true, // slog.Handler
	"WithGroup":   true, // slog.Handler
	"Unwrap":      true, // http.ResponseController, errors.Unwrap
}

// testOracles are exported names under internal/ that only tests call, kept
// on purpose.  Keys are package.Name for functions and package.Type.Name for
// methods.
var testOracles = map[string]string{
	"edram.PeriodicSchedule.GroupAt":        "closed form of the Periodic firing order that core's sweep arithmetic reproduces",
	"edram.PeriodicSchedule.FiringsUpTo":    "closed form of the number of Periodic group firings by a cycle",
	"edram.Retention.SentryFired":           "closed form of when a line's sentry bit interrupts",
	"edram.Retention.GuardBand":             "the retention margin between a sentry interrupt and cell decay",
	"sim.System.CheckInvariants":            "structural invariants of a whole chip: inclusion, directory and occupancy",
	"core.Bank.ValidLines":                  "cross-checks the Periodic occupancy counters against a scan",
	"core.Bank.PendingRefreshWork":          "the number of armed sentries, which tests check against the valid lines",
	"cache.Cache.IndexOf":                   "checks that a frame handle is the flat index refresh schedules by",
	"coherence.Directory.InvalidationsSent": "the directory's own message counter, cross-checked against its transitions",
	"coherence.Directory.DowngradesSent":    "the directory's own message counter, cross-checked against its transitions",
	"coherence.Directory.DirtyForwards":     "the directory's own message counter, cross-checked against its transitions",
	"coherence.Directory.HasUpperCopies":    "reads the sharer bookkeeping that the directory tests check",
	"coherence.Directory.OwnedDirtyAbove":   "reads the owner bookkeeping that the directory tests check",
	"config.Policy.DirtyBudget":             "closed form of how many refreshes WB(n,m) gives an untouched dirty line (Figure 4.1)",
	"config.Policy.CleanBudget":             "closed form of how many refreshes WB(n,m) gives an untouched clean line (Figure 4.1)",
	"cpu.Core.StallCycles":                  "the memory stall the core's timing tests check",
	"dram.DRAM.StallCycles":                 "the channel queueing the DRAM timing tests check",
	"noc.Torus.Latency":                     "closed form of a message's network latency",
	"noc.Torus.FlitHops":                    "closed form of a message's flit-hops, the unit of NoC energy",
	"faults.Disable":                        "tests in other packages uninstall their injectors with it",
	"sweep.FindComponent":                   "looks up a Figure 6.2 bar for the root package's headline tests and benchmarks",
	"workload.NewGenerator":                 "builds one thread's reference stream, which the stream-digest tests pin",
}

// TestNoTestOnlyExports fails on an exported function or method under
// internal/ whose name no non-test Go file of the repository uses, other
// than at its declaration.  Such an export is API that only tests hold up:
// delete it, or, if it is an oracle that tests rely on, add it to
// testOracles with its reason.  The check is by name, so it can miss an
// unused method that shares its name with a used one; it never flags a
// name that is in use.
func TestNoTestOnlyExports(t *testing.T) {
	fset := token.NewFileSet()
	type export struct {
		key string
		pos token.Position
	}
	var exports []export
	declared := map[*ast.Ident]bool{}
	used := map[string]bool{}
	var files []*ast.File
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (name == "testdata" || name == "bin" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, f)
		if !strings.HasPrefix(filepath.ToSlash(path), "internal/") {
			return nil
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			declared[fn.Name] = true
			key := f.Name.Name + "." + fn.Name.Name
			if fn.Recv != nil {
				if interfaceMethods[fn.Name.Name] {
					continue
				}
				key = f.Name.Name + "." + receiverType(fn.Recv.List[0].Type) + "." + fn.Name.Name
			}
			exports = append(exports, export{key, fset.Position(fn.Name.Pos())})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				used[id.Name] = true
			}
			return true
		})
	}
	if len(exports) == 0 {
		t.Fatal("found no exported functions under internal/")
	}
	var unused []string
	declaredKeys := map[string]bool{}
	for _, e := range exports {
		declaredKeys[e.key] = true
		name := e.key[strings.LastIndex(e.key, ".")+1:]
		if used[name] {
			continue
		}
		if _, ok := testOracles[e.key]; ok {
			continue
		}
		unused = append(unused, e.pos.String()+": "+e.key)
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s is exported but only tests use it", u)
	}
	for key := range testOracles {
		if !declaredKeys[key] {
			t.Errorf("testOracles lists %s, which is not an exported function or method under internal/", key)
		}
	}
}

// receiverType returns the type name of a method receiver expression.
func receiverType(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return receiverType(x.X)
	case *ast.IndexExpr:
		return receiverType(x.X)
	case *ast.IndexListExpr:
		return receiverType(x.X)
	case *ast.Ident:
		return x.Name
	}
	return "?"
}
