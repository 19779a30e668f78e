package workload

import (
	"testing"
	"testing/quick"
)

func TestAllConfigsValid(t *testing.T) {
	cfgs := AllConfigs()
	if len(cfgs) == 0 {
		t.Fatal("empty catalog")
	}
	for _, c := range cfgs {
		if !c.Valid() {
			t.Errorf("catalog produced invalid config %v", c)
		}
	}
}

func TestCatalogCoversTable1(t *testing.T) {
	// Table 1: 14 models. Count cells: 8 models × 3 batches × 2 AMP = 48,
	// BERT 1×2=2, LSTM 2×2=4, Transformer 2×1=2, PPO 3, TD3 3, NeuMF 2×2=4.
	want := 8*3*2 + 2 + 4 + 2 + 3 + 3 + 4
	if got := len(AllConfigs()); got != want {
		t.Fatalf("catalog has %d configs, want %d", got, want)
	}
}

func TestAMPRestrictedModels(t *testing.T) {
	for _, m := range []Model{Transformer, PPO, TD3} {
		if m.AMPAllowed() {
			t.Errorf("%s should not allow AMP per Table 1", m.Name())
		}
		c := Config{Model: m, BatchSize: m.BatchSizes()[0], AMP: true}
		if c.Valid() {
			t.Errorf("AMP config for %s should be invalid", m.Name())
		}
	}
}

func TestBERTSingleBatch(t *testing.T) {
	if got := BERT.BatchSizes(); len(got) != 1 || got[0] != 32 {
		t.Fatalf("BERT batch sizes = %v, want [32]", got)
	}
}

func TestProfileRanges(t *testing.T) {
	for _, c := range AllConfigs() {
		p := c.Profile()
		if p.GPUUtil <= 0 || p.GPUUtil > 99 {
			t.Errorf("%v: GPU util %v out of range", c, p.GPUUtil)
		}
		if p.GPUMemMB <= 0 || p.GPUMemMB > GPUMemMBCap {
			t.Errorf("%v: mem %v out of range", c, p.GPUMemMB)
		}
		if p.GPUMemUtil <= 0 || p.GPUMemUtil > 99 {
			t.Errorf("%v: mem util %v out of range", c, p.GPUMemUtil)
		}
		if p.AMP != c.AMP {
			t.Errorf("%v: profile AMP flag mismatch", c)
		}
	}
}

func TestProfileBatchMonotonic(t *testing.T) {
	// Bigger batches never use less memory or utilization.
	for m := Model(0); m < numModels; m++ {
		bs := m.BatchSizes()
		for i := 1; i < len(bs); i++ {
			lo := Config{Model: m, BatchSize: bs[i-1]}.Profile()
			hi := Config{Model: m, BatchSize: bs[i]}.Profile()
			if hi.GPUMemMB < lo.GPUMemMB {
				t.Errorf("%s: memory decreased with batch size", m.Name())
			}
			if hi.GPUUtil < lo.GPUUtil {
				t.Errorf("%s: utilization decreased with batch size", m.Name())
			}
		}
	}
}

func TestAMPReducesFootprint(t *testing.T) {
	// Figure 2b: AMP improves packing because it shrinks the profile.
	for _, c := range AllConfigs() {
		if c.AMP || !c.Model.AMPAllowed() {
			continue
		}
		amp := Config{Model: c.Model, BatchSize: c.BatchSize, AMP: true}
		p0, p1 := c.Profile(), amp.Profile()
		if p1.GPUUtil >= p0.GPUUtil {
			t.Errorf("%v: AMP did not reduce GPU util", c)
		}
		if p1.GPUMemMB >= p0.GPUMemMB {
			t.Errorf("%v: AMP did not reduce memory", c)
		}
	}
}

func TestConfigByName(t *testing.T) {
	c, ok := ConfigByName("ResNet-18", 64, false)
	if !ok || c.Model != ResNet18 {
		t.Fatalf("lookup failed: %v %v", c, ok)
	}
	if _, ok := ConfigByName("ResNet-18", 999, false); ok {
		t.Fatal("invalid batch size accepted")
	}
	if _, ok := ConfigByName("NoSuchModel", 64, false); ok {
		t.Fatal("unknown model accepted")
	}
	if _, ok := ConfigByName("PPO", 64, true); ok {
		t.Fatal("AMP PPO accepted despite Table 1 forbidding it")
	}
}

func TestDomainStrings(t *testing.T) {
	seen := map[string]bool{}
	for m := Model(0); m < numModels; m++ {
		s := m.Domain().String()
		if s == "unknown" {
			t.Errorf("%s has unknown domain", m.Name())
		}
		seen[s] = true
	}
	if len(seen) != 8 {
		t.Errorf("expected 8 distinct domains, got %d", len(seen))
	}
}

func TestConfigStringStable(t *testing.T) {
	c := Config{Model: ResNet18, BatchSize: 64, AMP: true}
	if got := c.String(); got != "ResNet-18/CIFAR-10 bs=64 amp=1" {
		t.Fatalf("String() = %q", got)
	}
}

func TestValidRejectsOutOfRangeModel(t *testing.T) {
	check := func(m int16, b uint8) bool {
		c := Config{Model: Model(m), BatchSize: int(b)}
		if m < 0 || int(m) >= int(numModels) {
			return !c.Valid()
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

// String returns a short human-readable domain name.
func (d Domain) String() string {
	switch d {
	case DomainImgClassification:
		return "img-classification"
	case DomainImgTranslation:
		return "img-translation"
	case DomainPointCloud:
		return "point-cloud"
	case DomainQA:
		return "question-answering"
	case DomainLM:
		return "language-modeling"
	case DomainTranslation:
		return "translation"
	case DomainRL:
		return "reinforcement-learning"
	case DomainRecommendation:
		return "recommendation"
	default:
		return "unknown"
	}
}
