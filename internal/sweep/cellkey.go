package sweep

import (
	"refrint/internal/config"
	"refrint/internal/sim"
)

// CellKey is the canonical identity of one simulation cell of a sweep: the
// (application, policy, retention, seed, base configuration, effort) tuple
// that fully determines a single sim.Result.  Two cells with equal keys —
// even when they belong to different sweeps — compute identical results, so
// a persistent store can share them across overlapping sweeps.
//
// The base configuration enters through its content hash (config.Hash), so
// a key stays small and printable while still changing whenever any
// architectural tunable changes.
type CellKey struct {
	// ConfigHash is config.Config.Hash() of the sweep's base preset.
	ConfigHash string `json:"config"`
	// App is the application name (Table 5.3).
	App string `json:"app"`
	// Policy is the refresh policy; the SRAM baseline for baseline cells.
	Policy config.Policy `json:"policy"`
	// RetentionUS is the paper-scale retention time (0 for the baseline).
	RetentionUS float64 `json:"retention_us"`
	// EffortScale multiplies the application's per-thread work.
	EffortScale float64 `json:"effort_scale"`
	// Seed drives the synthetic workload.
	Seed int64 `json:"seed"`
}

// Hash returns the stable content hash of the key: a short hex string safe
// for URLs and file names.  Distinct keys hash to distinct strings (up to
// cryptographic collision).
func (k CellKey) Hash() string { return config.HashJSON(k) }

// Leader returns the key of the cell whose run k's cell may take (see
// Reuse): the same cell under the Valid data policy of its time policy.  It
// is defined for the cells whose Result follows from a Valid run, R.all,
// P.all and WB(n,m), and reports false for every other cell, the Valid ones
// and the SRAM baseline included.
func (k CellKey) Leader() (CellKey, bool) {
	p := k.Policy
	if p.Time == config.NoRefresh || (p.Data != config.WBData && p.Data != config.AllData) {
		return CellKey{}, false
	}
	k.Policy = config.Policy{Time: p.Time, Data: config.ValidData}
	return k, true
}

// CellKey returns the canonical key of one cell of this sweep.  Defaults are
// applied first, so the key is independent of which zero fields the caller
// left implicit, and Workers never enters the key.
func (o Options) CellKey(app string, pt Point) CellKey {
	return o.normalise().cellKeyer().key(app, pt)
}

// cellKeyer stamps cell keys with the sweep-constant fields — the config
// hash especially — computed once rather than per cell; Cells builds one
// per sweep.  The Options it is built from must already
// be normalised.
type cellKeyer struct {
	configHash  string
	effortScale float64
	seed        int64
}

func (o Options) cellKeyer() cellKeyer {
	return cellKeyer{configHash: o.Base.Hash(), effortScale: o.EffortScale, seed: o.Seed}
}

func (c cellKeyer) key(app string, pt Point) CellKey {
	return CellKey{
		ConfigHash:  c.configHash,
		App:         app,
		Policy:      pt.Policy,
		RetentionUS: pt.RetentionUS,
		EffortScale: c.effortScale,
		Seed:        c.seed,
	}
}

// CellResult is the wire (and stored) form of one completed simulation cell:
// the key that identifies it plus the raw result.  It is what a cell-level
// result store persists and what CellPut hooks receive.
type CellResult struct {
	Key    CellKey    `json:"key"`
	Result sim.Result `json:"result"`
}
