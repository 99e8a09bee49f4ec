// Package verify holds the standing checks that the simulator computes the
// paper's model: conservation laws over its counters and energy, and
// identities between policies that the model implies.  They run as tests
// over the quick sweep (sweep.QuickOptions, seed 1).
package verify
