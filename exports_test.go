package refrint

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// interfaceMethods are method names that standard interfaces call, so a
// method with one of them is used even when no file of the module names it.
var interfaceMethods = map[string]bool{
	"String":        true, // fmt.Stringer
	"Error":         true, // error
	"MarshalText":   true, // encoding.TextMarshaler
	"UnmarshalText": true, // encoding.TextUnmarshaler
	"ServeHTTP":     true, // http.Handler
	"Enabled":       true, // slog.Handler
	"Handle":        true, // slog.Handler
	"WithAttrs":     true, // slog.Handler
	"WithGroup":     true, // slog.Handler
	"Unwrap":        true, // http.ResponseController, errors.Unwrap
	"Write":         true, // io.Writer
	"WriteHeader":   true, // http.ResponseWriter
}

// testOracles are exported names under internal/ that only tests call, kept
// on purpose.  Keys are package.Name for functions and package.Type.Name for
// methods.
var testOracles = map[string]string{
	"edram.PeriodicSchedule.GroupAt":        "closed form of the Periodic firing order that core's sweep arithmetic reproduces",
	"edram.Retention.SentryFired":           "closed form of when a line's sentry bit interrupts",
	"edram.Retention.GuardBand":             "the retention margin between a sentry interrupt and cell decay",
	"sim.System.CheckInvariants":            "structural invariants of a whole chip: inclusion, directory and occupancy",
	"core.Bank.ValidLines":                  "cross-checks the Periodic occupancy counters against a scan",
	"cache.Cache.DirtyCount":                "ground truth of the dirty lines, by a scan of the array",
	"coherence.CoreSet.Contains":            "reads a sharer set, which the directory tests check",
	"coherence.Directory.Entries":           "the number of tracked lines, which the directory and Reset tests check",
	"store.Store.Dir":                       "tells a memory-only store from one on disk, and locates the disk tree for the store tests",
	"linttest.Run":                          "the analyzer fixture harness; the analyzers' own tests are its callers by design",
	"core.Bank.PendingRefreshWork":          "the number of armed sentries, which tests check against the valid lines",
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
	"workload.NewGenerator":                 "builds one thread's reference stream, which the stream-digest tests pin",
}

// TestNoTestOnlyExports fails on an exported function or method under
// internal/ that no non-test Go file of the repository uses.  Such an export
// is API that only tests hold up: delete it, or, if it is an oracle that
// tests rely on, add it to testOracles with its reason.  Uses are resolved
// with go/types, so a method counts as used only where a call or a value
// names that very method, or an interface method of the module that its
// type implements; a name that only matches another declaration does not
// hide it.
func TestNoTestOnlyExports(t *testing.T) {
	fset := token.NewFileSet()
	l := &moduleLoader{
		fset:  fset,
		std:   importer.ForCompiler(fset, "source", nil),
		files: map[string][]*ast.File{},
		pkgs:  map[string]*types.Package{},
		info:  &types.Info{Uses: map[*ast.Ident]types.Object{}},
	}
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
		dir := filepath.ToSlash(filepath.Dir(path))
		l.files[dir] = append(l.files[dir], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var internal []*types.Package
	for dir := range l.files {
		pkg, err := l.Import(importPath(dir))
		if err != nil {
			t.Fatalf("type-check %s: %v", dir, err)
		}
		if strings.HasPrefix(dir, "internal/") {
			internal = append(internal, pkg)
		}
	}

	used := map[types.Object]bool{}
	var ifaceMethods []*types.Func // interface methods the module calls
	for _, obj := range l.info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		used[fn.Origin()] = true
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
			ifaceMethods = append(ifaceMethods, fn)
		}
	}
	viaInterface := func(m *types.Func) bool {
		recv := m.Type().(*types.Signature).Recv().Type()
		for _, im := range ifaceMethods {
			iface := im.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
			if im.Name() == m.Name() && (types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface)) {
				return true
			}
		}
		return false
	}

	var unused []string
	declaredKeys := map[string]bool{}
	check := func(fn *types.Func, key string) {
		declaredKeys[key] = true
		if used[fn] || testOracles[key] != "" {
			return
		}
		if fn.Type().(*types.Signature).Recv() != nil && (interfaceMethods[fn.Name()] || viaInterface(fn)) {
			return
		}
		unused = append(unused, fset.Position(fn.Pos()).String()+": "+key)
	}
	for _, pkg := range internal {
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Func:
				if obj.Exported() {
					check(obj, pkg.Name()+"."+name)
				}
			case *types.TypeName:
				named, ok := obj.Type().(*types.Named)
				if !ok {
					continue
				}
				for i := 0; i < named.NumMethods(); i++ {
					if m := named.Method(i); m.Exported() {
						check(m, pkg.Name()+"."+name+"."+m.Name())
					}
				}
			}
		}
	}
	if len(declaredKeys) == 0 {
		t.Fatal("found no exported functions under internal/")
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

// moduleLoader type-checks the repository's packages from their parsed
// non-test files, all recording into one types.Info, and imports the
// standard library from source.  Both modules of the repository map import
// path refrint/<dir> to directory <dir>.
type moduleLoader struct {
	fset  *token.FileSet
	std   types.Importer
	files map[string][]*ast.File // by slash-separated directory
	pkgs  map[string]*types.Package
	info  *types.Info
}

// importPath returns the import path of the package in a directory.
func importPath(dir string) string {
	if dir == "." {
		return "refrint"
	}
	return "refrint/" + dir
}

// Import implements types.Importer.
func (l *moduleLoader) Import(path string) (*types.Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	dir, ok := strings.CutPrefix(path, "refrint/")
	if path == "refrint" {
		dir, ok = ".", true
	}
	files := l.files[dir]
	if !ok || len(files) == 0 {
		return l.std.Import(path)
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, l.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = pkg
	return pkg, nil
}
