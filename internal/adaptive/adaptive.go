// Package adaptive closes the loop the paper leaves open: the
// Automatic XPro Generator (§3.2) picks the min-cut partition for
// *fixed* channel parameters, but a deployed body-area link drifts —
// loss bursts, hard outages, recoveries. This package watches the
// channel the runtime actually experiences, re-prices the partition
// problem against the estimated channel, and hot-swaps the active cut
// when a sufficiently better one exists.
//
// Three pieces:
//
//   - Estimator: an EWMA tracker of per-attempt packet loss and hard
//     outage, fed from resilient-classification outcomes
//     (xsystem.Outcome), lossy-channel send statistics
//     (wireless.SendStats), fault-window observations (faults.State)
//     and circuit-breaker transitions.
//
//   - EffectiveModel: the estimated channel folded back into a
//     wireless.Model — per-bit energies and air time inflated by the
//     expected (re)transmission factor — so the unmodified generator
//     re-prices every cut under today's channel, not the datasheet's.
//
//   - Controller: the hysteresis loop. It re-runs the delay-constrained
//     generator against the effective channel (unless the min-cut
//     energy floor already shows that no cut clears the improvement
//     bar), swaps the active cut
//     only after a minimum dwell time and only for a minimum relative
//     energy improvement (no flapping), and puts every fresh cut on
//     probation: a delay violation during probation rolls straight
//     back to the previous cut.
//
// Everything is driven by the modeled faults.Clock, so a seeded run
// replays its re-cut decisions bit-identically.
package adaptive

import (
	"fmt"
	"math"
)

// Config bundles the adaptive controller's knobs.
type Config struct {
	// Alpha is the EWMA smoothing factor in (0, 1]: the weight of each
	// new channel observation. Higher reacts faster, lower smooths
	// harder.
	Alpha float64
	// MinDwellSeconds is the hysteresis dwell: after a swap (or
	// rollback) the controller will not consider another re-cut for
	// this many modeled seconds. Must be positive.
	MinDwellSeconds float64
	// ImprovementThreshold is the minimum relative sensor-energy
	// improvement (under the estimated channel) a candidate cut must
	// offer over the active one to be worth a swap, in (0, 1). Must be
	// positive: a zero threshold would flap between near-tied cuts.
	ImprovementThreshold float64
	// ProbationEvents is the number of events a freshly swapped cut
	// must survive without a delay violation before it is committed; a
	// violation during probation rolls back to the previous cut. Must
	// be positive.
	ProbationEvents int
	// MaxInflation caps the modeled retransmission factor 1/(1−loss)
	// when deriving the effective channel, and is the factor assumed
	// during a hard outage. Must be at least 1.
	MaxInflation float64
}

// DefaultConfig returns conservative adaptive-repartitioning knobs: a
// 0.2 EWMA weight, a second of modeled dwell between re-cuts, a 5%
// improvement bar, an 8-event probation and a 64× inflation cap.
func DefaultConfig() Config {
	return Config{
		Alpha:                0.2,
		MinDwellSeconds:      1,
		ImprovementThreshold: 0.05,
		ProbationEvents:      8,
		MaxInflation:         64,
	}
}

// Validate rejects non-positive hysteresis knobs and NaN/Inf channel
// parameters. The negated comparisons also reject NaN, which fails
// every comparison — the same guard wireless.NewChannel uses.
func (c Config) Validate() error {
	if !(c.Alpha > 0 && c.Alpha <= 1) {
		return fmt.Errorf("adaptive: EWMA alpha %v outside (0,1]", c.Alpha)
	}
	if !(c.MinDwellSeconds > 0) || math.IsInf(c.MinDwellSeconds, 0) {
		return fmt.Errorf("adaptive: min dwell %v must be positive and finite", c.MinDwellSeconds)
	}
	if !(c.ImprovementThreshold > 0 && c.ImprovementThreshold < 1) {
		return fmt.Errorf("adaptive: improvement threshold %v outside (0,1)", c.ImprovementThreshold)
	}
	if c.ProbationEvents <= 0 {
		return fmt.Errorf("adaptive: probation length %d must be positive", c.ProbationEvents)
	}
	if !(c.MaxInflation >= 1) || math.IsInf(c.MaxInflation, 0) {
		return fmt.Errorf("adaptive: inflation cap %v must be finite and at least 1", c.MaxInflation)
	}
	return nil
}
