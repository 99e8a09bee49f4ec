package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"refrint"
	"refrint/internal/config"
	"refrint/internal/sim"
	"refrint/internal/stats"
)

// expected maps a cell, or the figure export of a quick sweep, to the
// digest pinned for it by -update.
type expected map[string]string

func loadExpected(path string) (expected, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading pinned digests: %w", err)
	}
	var e expected
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, fmt.Errorf("decoding pinned digests %s: %w", path, err)
	}
	return e, nil
}

// digest fingerprints what a cell computes: every counter, the execution
// time and the total energy.
func digest(res sim.Result) string {
	data, err := json.Marshal(struct {
		Stats   *stats.Stats
		Cycles  int64
		EnergyJ float64
	}{res.Stats, res.Cycles, res.Energy.Total()})
	if err != nil {
		panic(err) // plain counters always encode
	}
	return bytesDigest(data)
}

func bytesDigest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:12])
}

// cellChecker validates simulated cells against the pinned digests, against
// earlier runs of the same cell in this process, and against the model's
// laws.
type cellChecker struct {
	exp  expected
	seen map[string]string
}

func newCellChecker(exp expected) *cellChecker {
	return &cellChecker{exp: exp, seen: make(map[string]string)}
}

// check returns the problems found in one cell's result.
func (k *cellChecker) check(c cell, res sim.Result) []string {
	key, d := c.String(), digest(res)
	problems := laws(c, res)
	if want, ok := k.exp[key]; ok && want != d {
		problems = append(problems, fmt.Sprintf("digest %s, pinned %s", d, want))
	}
	if prev, ok := k.seen[key]; ok && prev != d {
		problems = append(problems, fmt.Sprintf("digest %s differs from an earlier run's %s", d, prev))
	}
	k.seen[key] = d
	return problems
}

// laws returns the violations of relations every result of the cell must
// satisfy, whatever its seed.  Hits plus misses equal to lookups is not one
// of them: policy writebacks are counted as writes without a lookup.
func laws(c cell, res sim.Result) []string {
	var bad []string
	st := res.Stats
	if want := c.refs(); st.MemOps != want {
		bad = append(bad, fmt.Sprintf("simulated %d references, want %d", st.MemOps, want))
	}
	var slowest int64
	for _, cyc := range st.PerCoreCycles {
		slowest = max(slowest, cyc)
	}
	if res.Cycles <= 0 || res.Cycles != slowest || st.Cycles != res.Cycles {
		bad = append(bad, fmt.Sprintf("execution time %d cycles, slowest core %d", res.Cycles, slowest))
	}
	if res.App != c.app || res.Policy != c.policy.String() {
		bad = append(bad, fmt.Sprintf("result is for %s under %s", res.App, res.Policy))
	}
	switch c.policy.Time {
	case config.NoRefresh:
		if st.TotalOnChipRefreshes() != 0 || res.Energy.Refresh != 0 || st.SentryInterrupts != 0 || st.PeriodicGroupScans != 0 {
			bad = append(bad, "the SRAM baseline refreshed")
		}
	case config.RefrintTime:
		if st.PeriodicGroupScans != 0 {
			bad = append(bad, "a Refrint policy ran periodic group scans")
		}
	case config.PeriodicTime:
		if st.SentryInterrupts != 0 {
			bad = append(bad, "a Periodic policy raised sentry interrupts")
		}
	}
	return bad
}

// updateExpected recomputes the pinned digests for -seed and -scale: every
// cell of each simulation workload's seed cycle, and the figure export of
// the quick sweeps that sweep-quick runs first.
func updateExpected(ctx context.Context, opt options, stdout io.Writer) error {
	exp := expected{}
	for _, w := range simWorkloads {
		for _, c := range w.cells(opt.seed, opt.scale) {
			if err := ctx.Err(); err != nil {
				return err
			}
			run, err := simulate(c, nil, 0, "")
			if err != nil {
				return err
			}
			exp[c.String()] = digest(run.res)
		}
	}
	for k := int64(0); k < pinnedSweeps; k++ {
		opts := quickOptions(opt.seed+k, opt.scale)
		res, err := refrint.RunSweepContext(ctx, opts, nil)
		if err != nil {
			return err
		}
		payload, err := figuresPayload(res)
		if err != nil {
			return err
		}
		exp[figuresKey(opts)] = bytesDigest(payload)
	}
	if err := writeJSON(opt.expected, exp); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "pinned %d digests in %s\n", len(exp), opt.expected)
	return nil
}
