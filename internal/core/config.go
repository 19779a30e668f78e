package core

import (
	"fmt"

	"repro/internal/workload"
)

// Normalized fills every unset (zero-valued) knob with its paper default and
// returns the result. Zero means "use the default" for the knobs whose legal
// range excludes zero; it is a meaningful setting for UpdateIntervalSec
// (static-model ablation) and FairnessAgingSec (aging off), which are left
// alone. Normalized never repairs an out-of-range value — that is Validate's
// job, and the two compose as cfg.Normalized().Validate().
func (c Config) Normalized() Config {
	if c.TprofSec == 0 {
		c.TprofSec = 200
	}
	if c.Nprof == 0 {
		c.Nprof = 8
	}
	if c.Thresholds == (workload.Thresholds{}) {
		c.Thresholds = workload.DefaultThresholds
	}
	return c
}

// Validate reports the first out-of-range knob as a named-field error, or
// nil. It expects a fully-specified config (apply Normalized first if zero
// values mean "default"): the classifier thresholds must lie in (0,1] with
// Medium ≤ Tiny — Medium is the *stricter* cut point on the normalized-speed
// axis (§3.5.1) — and every duration or rate knob must be non-negative.
//
// Configs used to be repaired silently (New clamped non-positive knobs to
// their defaults), which hid sign bugs in programmatically-generated configs
// such as TuneProfiler's candidates: a wrong knob must fail loudly at
// construction, not quietly become the default.
func (c Config) Validate() error {
	switch {
	case c.TprofSec < 0:
		return fmt.Errorf("core: config TprofSec %d < 0", c.TprofSec)
	case c.Nprof < 0:
		return fmt.Errorf("core: config Nprof %d < 0", c.Nprof)
	case c.Thresholds.Medium <= 0 || c.Thresholds.Medium > 1:
		return fmt.Errorf("core: config Thresholds.Medium %g outside (0,1]", c.Thresholds.Medium)
	case c.Thresholds.Tiny <= 0 || c.Thresholds.Tiny > 1:
		return fmt.Errorf("core: config Thresholds.Tiny %g outside (0,1]", c.Thresholds.Tiny)
	case c.Thresholds.Medium > c.Thresholds.Tiny:
		return fmt.Errorf("core: config Thresholds.Medium %g > Tiny %g",
			c.Thresholds.Medium, c.Thresholds.Tiny)
	case c.UpdateIntervalSec < 0:
		return fmt.Errorf("core: config UpdateIntervalSec %d < 0", c.UpdateIntervalSec)
	case c.FairnessAgingSec < 0:
		return fmt.Errorf("core: config FairnessAgingSec %g < 0", c.FairnessAgingSec)
	}
	return nil
}
