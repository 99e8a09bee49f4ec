# Developer entry points.  CI runs the same targets; see .github/workflows/ci.yml.

GO ?= go

.PHONY: build test race bench bench-baseline bench-compare fmt vet lint profile

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

fmt:
	gofmt -l .

vet:
	$(GO) vet ./...

# Project-native static analysis (internal/analysis): the *Locked contract,
# //refrint:alloc-free pins, /metrics naming/registration, and atomic-field
# discipline.  Blocking in CI; run before sending a change.
lint:
	$(GO) build -o bin/refrint-lint ./cmd/refrint-lint
	$(GO) vet -vettool=$(CURDIR)/bin/refrint-lint ./...

# Run the hot-path benchmark suite (5 iterations, with allocation counts).
bench:
	scripts/bench.sh bench/current.txt

# Regenerate the committed benchmark baseline.  Run on a quiet machine and
# commit bench/baseline.txt together with the change that moved the numbers.
bench-baseline:
	scripts/bench.sh bench/baseline.txt

# Capture a CPU profile from a running server started with
# -debug-addr $(DEBUG_ADDR) and drop it under bench/ for go tool pprof:
#   refrint-serve -debug-addr localhost:6060 &
#   make profile
#   $(GO) tool pprof bench/cpu.pprof
DEBUG_ADDR ?= localhost:6060
PROFILE_SECONDS ?= 10
profile:
	curl -sf -o bench/cpu.pprof "http://$(DEBUG_ADDR)/debug/pprof/profile?seconds=$(PROFILE_SECONDS)"
	@echo "wrote bench/cpu.pprof ($(PROFILE_SECONDS)s CPU profile from $(DEBUG_ADDR))"

# Compare the current tree against the committed baseline.  benchstat is
# fetched on demand; the comparison is advisory (machines differ), so CI
# treats regressions as warnings, not failures.
bench-compare: bench
	$(GO) run golang.org/x/perf/cmd/benchstat@latest bench/baseline.txt bench/current.txt
