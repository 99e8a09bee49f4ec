// Package noc models the on-chip interconnect of the evaluated chip: a 2-D
// torus (4x4 in the paper) connecting the 16 tiles, each of which holds one
// core, its private caches and one bank of the shared L3.
//
// The model is latency/energy oriented: a message between two tiles costs
// HopLatency cycles per hop along a dimension-order route on the torus, and
// one flit-hop of dynamic energy per flit per hop.  Link contention is not
// queued; the paper's network is far from saturation for these workloads and
// the refresh policies do not change network load qualitatively.
package noc

import (
	"fmt"

	"refrint/internal/config"
)

// Torus is a W x H torus with dimension-order routing.
type Torus struct {
	cfg config.NoCConfig
	// hops[src*nodes+dst] caches the minimal hop count of every pair; the
	// simulator consults it on every message, so it must be a plain load.
	hops  []int16
	nodes int
}

// New builds the torus from its configuration.
func New(cfg config.NoCConfig) *Torus {
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("noc: invalid config: %v", err))
	}
	t := &Torus{cfg: cfg, nodes: cfg.Nodes()}
	t.hops = make([]int16, t.nodes*t.nodes)
	for src := 0; src < t.nodes; src++ {
		for dst := 0; dst < t.nodes; dst++ {
			t.hops[src*t.nodes+dst] = int16(t.computeHops(src, dst))
		}
	}
	return t
}

// Config returns the network configuration.
func (t *Torus) Config() config.NoCConfig { return t.cfg }

// coords returns the (x, y) position of a node id.
func (t *Torus) coords(node int) (x, y int) {
	return node % t.cfg.Width, node / t.cfg.Width
}

// torusDist returns the wrap-around distance between two coordinates on a
// ring of the given size.
func torusDist(a, b, size int) int {
	d := a - b
	if d < 0 {
		d = -d
	}
	if wrap := size - d; wrap < d {
		return wrap
	}
	return d
}

// Hops returns the number of router-to-router hops between two tiles using
// minimal dimension-order routing on the torus.  A message to the local tile
// takes zero hops.
func (t *Torus) Hops(src, dst int) int {
	return int(t.hops[src*t.nodes+dst])
}

// computeHops derives the hop count of one pair (used to fill the table).
func (t *Torus) computeHops(src, dst int) int {
	if src == dst {
		return 0
	}
	sx, sy := t.coords(src)
	dx, dy := t.coords(dst)
	return torusDist(sx, dx, t.cfg.Width) + torusDist(sy, dy, t.cfg.Height)
}

// Latency returns the cycles needed to deliver a message of `bytes` payload
// from src to dst: per-hop latency plus serialization of the flits.
func (t *Torus) Latency(src, dst int, bytes int) int64 {
	hops := t.Hops(src, dst)
	if hops == 0 {
		return 0
	}
	flits := t.Flits(bytes)
	// Head flit pays the full hop latency; body flits stream behind it.
	return int64(hops)*t.cfg.HopLatency + int64(flits-1)
}

// Flits returns the number of flits a message of the given payload occupies
// (at least one, for the header).
func (t *Torus) Flits(bytes int) int {
	if bytes <= 0 {
		return 1
	}
	return (bytes + t.cfg.LinkWidth - 1) / t.cfg.LinkWidth
}

// FlitHops returns flits x hops for a message, the quantity the energy model
// charges per-flit-hop energy for.
func (t *Torus) FlitHops(src, dst int, bytes int) int64 {
	return int64(t.Flits(bytes)) * int64(t.Hops(src, dst))
}
