// refrint-lint is the project's static-analysis suite: two custom
// analyzers (see internal/analysis/...) that machine-check invariants the
// codebase otherwise only enforces by convention —
//
//	lockcheck   — *Locked functions are called under the mutex and never block
//	allocfree   — //refrint:alloc-free hot paths contain no allocating constructs
//
// The /metrics contract (refrint_ names, HELP and TYPE on every family) is
// checked by internal/server's TestMetricsExpositionLint instead, against
// both a populated scrape and the renderer's source.
//
// The binary speaks the go vet -vettool protocol, so the go command does
// the package loading and drives it exactly like go vet's own checks:
//
//	go build -o bin/refrint-lint ./cmd/refrint-lint
//	go vet -vettool=bin/refrint-lint ./...
//
// or simply `make lint`.  Findings can be waived case-by-case with
// `//refrint:allow <analyzer> -- reason`.
package main

import (
	"refrint/internal/analysis/allocfree"
	"refrint/internal/analysis/lint"
	"refrint/internal/analysis/lockcheck"
)

func main() {
	lint.Main(
		lockcheck.Analyzer,
		allocfree.Analyzer,
	)
}
