// Package faults is the fault-injection harness behind the chaos test suite
// and the refrint-serve -fault-spec flag.  Production code calls Check (or
// CheckCtx) at named injection points; with no spec installed — the default —
// that is a single atomic pointer load and nothing else: zero allocations,
// zero branches taken, safe on every hot path.
//
// A spec activates one or more points with a failure mode and a trigger
// rate:
//
//	point:mode[:arg][:rate]
//
// comma-separated.  Modes:
//
//	error    Check returns ErrInjected (arg is the rate, default 1)
//	corrupt  Check returns ErrCorrupted (arg is the rate, default 1)
//	panic    Check panics (arg is the rate, default 1)
//	latency  Check sleeps arg (a Go duration; optional trailing rate)
//
// error and corrupt differ only in the sentinel they return, and callers
// differ in how they treat the two: the store maps an ErrInjected read to a
// transient miss (the blob is fine, the read failed), while ErrCorrupted
// means the blob itself is bad and must go through the quarantine path.
//
// Examples:
//
//	store.put:error:0.5          half of store writes fail
//	store.get:corrupt:0.1        a tenth of store reads find a corrupt blob
//	sim.run:panic:1              every simulation panics
//	sim.run:latency:2s           every simulation takes 2s longer
//	job.complete:panic           every job panics as its results are assembled
//	store.put:error:1,sim.run:latency:10ms:0.1
//
// The injector is process-global and deliberately crude: it exists to
// provoke the failure paths CI must prove survivable (panic containment,
// deadline enforcement, store degradation), not to model realistic faults.
// Nothing in this package runs unless a spec is explicitly installed via
// Enable (tests) or the -fault-spec flag (chaos smoke scripts).
package faults

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// The named injection points wired through the codebase, and the only ones
// a spec may name.
const (
	StorePut    = "store.put"    // persistent-store blob writes
	StoreGet    = "store.get"    // persistent-store blob reads
	SimRun      = "sim.run"      // one simulation cell, inside the recover guard
	JobComplete = "job.complete" // one job's assembly and manifest write, inside the recover guard
)

// points is every injection point, in the order Parse's error lists them.
var points = []string{StorePut, StoreGet, SimRun, JobComplete}

// ErrInjected is the error returned by error-mode injection.  Callers that
// must distinguish injected failures from real ones (the store's quarantine
// path must not move real blobs aside over a synthetic read error) test for
// it with errors.Is.
var ErrInjected = errors.New("injected fault")

// ErrCorrupted is the error returned by corrupt-mode injection.  It is
// deliberately NOT ErrInjected: it simulates the blob itself being bad
// rather than the read failing, so callers that special-case ErrInjected as
// transient (the store's synthetic-miss path) treat a corrupt injection like
// a genuine verification failure and exercise their quarantine handling.
var ErrCorrupted = errors.New("injected corruption")

// mode is the failure behavior of one rule.
type mode int

const (
	modeError mode = iota
	modeCorrupt
	modePanic
	modeLatency
)

// rateModes are the modes whose only argument is a rate.
var rateModes = map[string]mode{"error": modeError, "corrupt": modeCorrupt, "panic": modePanic}

// rule is one activated injection point.
type rule struct {
	mode    mode
	rate    float64
	latency time.Duration
}

// Injector holds a parsed fault spec.  Install it with Enable.
type Injector struct {
	rules map[string][]rule
}

// Parse builds an Injector from a spec string.  An empty spec returns
// (nil, nil): nothing to inject.  A point outside the named injection points
// is an error, so a typo cannot leave injection silently inert.
func Parse(spec string) (*Injector, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	inj := &Injector{rules: make(map[string][]rule)}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Split(part, ":")
		if len(fields) < 2 {
			return nil, fmt.Errorf("faults: rule %q: want point:mode[:arg][:rate]", part)
		}
		point := strings.TrimSpace(fields[0])
		if !slices.Contains(points, point) {
			return nil, fmt.Errorf("faults: rule %q: unknown point %q (want one of %s)", part, point, strings.Join(points, ", "))
		}
		r := rule{rate: 1}
		name := strings.TrimSpace(fields[1])
		switch m, ok := rateModes[name]; {
		case ok:
			r.mode = m
			if len(fields) > 3 {
				return nil, fmt.Errorf("faults: rule %q: %s takes at most a rate", part, name)
			}
			if len(fields) == 3 {
				rate, err := parseRate(fields[2])
				if err != nil {
					return nil, fmt.Errorf("faults: rule %q: %v", part, err)
				}
				r.rate = rate
			}
		case name == "latency":
			r.mode = modeLatency
			if len(fields) < 3 || len(fields) > 4 {
				return nil, fmt.Errorf("faults: rule %q: latency wants a duration and an optional rate", part)
			}
			d, err := time.ParseDuration(strings.TrimSpace(fields[2]))
			if err != nil || d < 0 {
				return nil, fmt.Errorf("faults: rule %q: bad duration %q", part, fields[2])
			}
			r.latency = d
			if len(fields) == 4 {
				rate, err := parseRate(fields[3])
				if err != nil {
					return nil, fmt.Errorf("faults: rule %q: %v", part, err)
				}
				r.rate = rate
			}
		default:
			return nil, fmt.Errorf("faults: rule %q: unknown mode %q (want error, corrupt, panic or latency)", part, fields[1])
		}
		inj.rules[point] = append(inj.rules[point], r)
	}
	return inj, nil
}

// parseRate parses a trigger rate in [0, 1].  NaN is rejected explicitly:
// every comparison with it is false, so it would pass the range test and
// then fire on every check.
func parseRate(s string) (float64, error) {
	rate, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil || math.IsNaN(rate) || rate < 0 || rate > 1 {
		return 0, fmt.Errorf("bad rate %q (want 0..1)", s)
	}
	return rate, nil
}

// current is the installed injector; nil (the default) disables everything.
// One atomic load gates every Check call.
var current atomic.Pointer[Injector]

// Enable installs an injector process-wide (nil is equivalent to Disable).
// Tests pair it with t.Cleanup(faults.Disable) so injection never leaks into
// neighbouring tests.
func Enable(inj *Injector) {
	if inj != nil && len(inj.rules) == 0 {
		inj = nil
	}
	current.Store(inj)
}

// Disable removes any installed injector.
func Disable() { current.Store(nil) }

// Check consults the injection point: it returns ErrInjected (error mode),
// panics (panic mode), sleeps (latency mode), or — with no injector
// installed, or no rule for the point, or the rate not triggering — returns
// nil having done nothing.  The disabled fast path is one atomic load.
func Check(point string) error {
	inj := current.Load()
	if inj == nil {
		return nil
	}
	return inj.check(nil, point)
}

// CheckCtx is Check with context-aware latency injection: an injected sleep
// aborts early (returning ctx.Err()) when the context is cancelled, so
// latency injection can never hold a cancelled execution hostage.
func CheckCtx(ctx context.Context, point string) error {
	inj := current.Load()
	if inj == nil {
		return nil
	}
	return inj.check(ctx, point)
}

func (inj *Injector) check(ctx context.Context, point string) error {
	for _, r := range inj.rules[point] {
		if r.rate < 1 && rand.Float64() >= r.rate {
			continue
		}
		switch r.mode {
		case modeError:
			return fmt.Errorf("faults: %s: %w", point, ErrInjected)
		case modeCorrupt:
			return fmt.Errorf("faults: %s: %w", point, ErrCorrupted)
		case modePanic:
			panic(fmt.Sprintf("faults: injected panic at %s", point))
		case modeLatency:
			if ctx == nil {
				time.Sleep(r.latency)
				continue
			}
			t := time.NewTimer(r.latency)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return ctx.Err()
			}
		}
	}
	return nil
}
