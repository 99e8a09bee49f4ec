package lint

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"
)

// config is the part of the compilation-unit description (the JSON .cfg
// file the go command hands a vet tool) that the driver reads.
type config struct {
	Compiler                  string // gc or gccgo, for importer.ForCompiler
	ImportPath                string
	GoVersion                 string // minimum Go version, such as "go1.23"
	GoFiles                   []string
	ImportMap                 map[string]string // import path -> package path
	PackageFile               map[string]string // package path -> export data file
	VetxOnly                  bool              // analyse for facts only, report nothing
	VetxOutput                string            // where the go command expects the fact file
	SucceedOnTypecheckFailure bool              // leave parse and type errors to the compiler
}

// Main is the entry point of a `go vet -vettool` binary that runs
// analyzers.  The go command first calls the binary with -V=full (to key
// its cache) and -flags (to learn which flags to pass through), then once
// per package with the path of that package's .cfg file.  Findings go to
// stderr as file:line:col: message, and any finding makes the exit
// status 1.
func Main(analyzers ...*Analyzer) {
	progname := filepath.Base(os.Args[0])
	log.SetFlags(0)
	log.SetPrefix(progname + ": ")

	version := flag.String("V", "", "print version and exit (go vet passes -V=full)")
	printFlags := flag.Bool("flags", false, "print the flags as JSON and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: go vet -vettool=$(command -v %s) [packages]\n\nanalyzers:\n", progname)
		for _, a := range analyzers {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
		os.Exit(2)
	}
	flag.Parse()

	switch {
	case *version != "":
		exe, err := os.Executable()
		if err != nil {
			log.Fatal(err)
		}
		data, err := os.ReadFile(exe)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s version devel buildID=%x\n", progname, sha256.Sum256(data))
	case *printFlags:
		type jsonFlag struct {
			Name  string
			Bool  bool
			Usage string
		}
		var flags []jsonFlag
		flag.VisitAll(func(f *flag.Flag) {
			b, ok := f.Value.(interface{ IsBoolFlag() bool })
			flags = append(flags, jsonFlag{f.Name, ok && b.IsBoolFlag(), f.Usage})
		})
		data, err := json.MarshalIndent(flags, "", "\t")
		if err != nil {
			log.Fatal(err)
		}
		os.Stdout.Write(data)
	case flag.NArg() == 1 && strings.HasSuffix(flag.Arg(0), ".cfg"):
		os.Exit(run(flag.Arg(0), analyzers))
	default:
		flag.Usage()
	}
}

// run analyses the unit described by cfgFile and returns the exit status.
func run(cfgFile string, analyzers []*Analyzer) int {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		log.Fatal(err)
	}
	var cfg config
	if err := json.Unmarshal(data, &cfg); err != nil {
		log.Fatalf("cannot decode JSON config file %s: %v", cfgFile, err)
	}
	if len(cfg.GoFiles) == 0 {
		log.Fatalf("package has no files: %s", cfg.ImportPath)
	}
	// No analyzer exports facts, so every unit's fact file is empty.  The
	// go command still caches it, and VetxOnly units (dependencies
	// analysed only for their facts) need no further work.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			log.Fatalf("failed to write analysis facts: %v", err)
		}
	}
	if cfg.VetxOnly {
		return 0
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return 0
			}
			log.Fatal(err)
		}
		files = append(files, f)
	}

	// The importer reads the export data the go command compiled for each
	// dependency, after ImportMap resolves vendoring.
	lookup := func(importPath string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[cfg.ImportMap[importPath]]
		if !ok {
			return nil, fmt.Errorf("can't resolve import %q", importPath)
		}
		return os.Open(file)
	}
	conf := &types.Config{
		Importer:  importer.ForCompiler(fset, cfg.Compiler, lookup),
		Sizes:     types.SizesFor("gc", build.Default.GOARCH),
		GoVersion: cfg.GoVersion,
	}
	diags, err := Check(fset, files, cfg.ImportPath, conf, analyzers)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		log.Fatal(err)
	}
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s\n", fset.Position(d.Pos), d.Message)
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}
