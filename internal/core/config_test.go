package core

import (
	"strings"
	"testing"

	"repro/internal/workload"
)

// TestConfigValidateRejections: every out-of-range knob fails with an error
// naming the offending field, so a bad programmatically-generated config
// (e.g. a tuning candidate with a sign bug) is diagnosable at a glance.
func TestConfigValidateRejections(t *testing.T) {
	cases := []struct {
		name  string
		mut   func(*Config)
		field string
	}{
		{"negative Tprof", func(c *Config) { c.TprofSec = -1 }, "TprofSec"},
		{"negative Nprof", func(c *Config) { c.Nprof = -8 }, "Nprof"},
		{"Medium zero", func(c *Config) { c.Thresholds.Medium = 0 }, "Thresholds.Medium"},
		{"Medium above one", func(c *Config) { c.Thresholds.Medium = 1.2 }, "Thresholds.Medium"},
		{"Tiny negative", func(c *Config) { c.Thresholds.Tiny = -0.5 }, "Thresholds.Tiny"},
		{"Tiny above one", func(c *Config) { c.Thresholds.Tiny = 1.01 }, "Thresholds.Tiny"},
		{"Medium above Tiny", func(c *Config) {
			c.Thresholds = workload.Thresholds{Medium: 0.97, Tiny: 0.85}
		}, "Thresholds.Medium"},
		{"negative update interval", func(c *Config) { c.UpdateIntervalSec = -3600 }, "UpdateIntervalSec"},
		{"negative fairness aging", func(c *Config) { c.FairnessAgingSec = -0.5 }, "FairnessAgingSec"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tc.mut(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatalf("Validate accepted %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.field) {
				t.Fatalf("error %q does not name field %s", err, tc.field)
			}
		})
	}
}

// TestConfigValidateAccepts: the defaults, the meaningful zeros
// (UpdateIntervalSec 0 = static-model ablation, FairnessAgingSec 0 = aging
// off) and the range edges all pass.
func TestConfigValidateAccepts(t *testing.T) {
	cfgs := map[string]func(*Config){
		"defaults":            func(*Config) {},
		"update disabled":     func(c *Config) { c.UpdateIntervalSec = 0 },
		"aging off":           func(c *Config) { c.FairnessAgingSec = 0 },
		"thresholds at edges": func(c *Config) { c.Thresholds = workload.Thresholds{Medium: 1, Tiny: 1} },
		"equal thresholds":    func(c *Config) { c.Thresholds = workload.Thresholds{Medium: 0.9, Tiny: 0.9} },
	}
	for name, mut := range cfgs {
		cfg := DefaultConfig()
		mut(&cfg)
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s rejected: %v", name, err)
		}
	}
}

// TestConfigNormalizedFillsZeros: the zero value of each "0 = default" knob
// becomes its paper default, while meaningful zeros survive, so
// Normalized().Validate() is the canonical intake path for external configs.
func TestConfigNormalizedFillsZeros(t *testing.T) {
	n := Config{}.Normalized()
	def := DefaultConfig()
	if n.TprofSec != def.TprofSec || n.Nprof != def.Nprof {
		t.Fatalf("profiler defaults not filled: %+v", n)
	}
	if n.Thresholds != workload.DefaultThresholds {
		t.Fatalf("thresholds not filled: %+v", n.Thresholds)
	}
	if n.UpdateIntervalSec != 0 || n.FairnessAgingSec != 0 {
		t.Fatalf("meaningful zeros were overwritten: %+v", n)
	}
	if err := n.Validate(); err != nil {
		t.Fatalf("normalized zero config must validate: %v", err)
	}
}

// TestNewPanicsOnInvalidConfig: the construction path rejects out-of-range
// knobs loudly instead of silently clamping them to defaults.
func TestNewPanicsOnInvalidConfig(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("New accepted a negative TprofSec")
		}
		if err, ok := r.(error); !ok || !strings.Contains(err.Error(), "TprofSec") {
			t.Fatalf("panic %v does not name TprofSec", r)
		}
	}()
	cfg := DefaultConfig()
	cfg.TprofSec = -60
	New(&Models{}, cfg)
}
