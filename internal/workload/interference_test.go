package workload

import (
	"math"
	"testing"
	"testing/quick"
)

func cfg(m Model, b int, amp bool) Config { return Config{Model: m, BatchSize: b, AMP: amp} }

func TestCurveAt100(t *testing.T) {
	// Figure 2a: the fitted curve passes ≈0.92 at accumulated util 100 %.
	if got := FittedCurve(100); math.Abs(got-0.92) > 0.001 {
		t.Fatalf("curve(100) = %v, want 0.92", got)
	}
}

func TestCurveMonotoneDecreasing(t *testing.T) {
	prev := FittedCurve(0)
	for u := 5.0; u <= 200; u += 5 {
		cur := FittedCurve(u)
		if cur > prev+1e-9 {
			t.Fatalf("curve not monotone at u=%v: %v > %v", u, cur, prev)
		}
		prev = cur
	}
	if FittedCurve(0) != 1 {
		t.Fatal("curve(0) != 1")
	}
}

func TestPairSpeedBounds(t *testing.T) {
	check := func(ai, bi uint16) bool {
		cfgs := AllConfigs()
		a := cfgs[int(ai)%len(cfgs)]
		b := cfgs[int(bi)%len(cfgs)]
		sa, sb := PairSpeed(a, b)
		return sa > 0 && sa <= 1 && sb > 0 && sb <= 1
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPairSpeedSymmetricAPI(t *testing.T) {
	// PairSpeed(a,b) and PairSpeed(b,a) must describe the same physical
	// colocation with roles swapped.
	cfgs := AllConfigs()
	for i := 0; i < len(cfgs); i += 7 {
		for j := 0; j < len(cfgs); j += 11 {
			a, b := cfgs[i], cfgs[j]
			sa1, sb1 := PairSpeed(a, b)
			sb2, sa2 := PairSpeed(b, a)
			if math.Abs(sa1-sa2) > 1e-9 || math.Abs(sb1-sb2) > 1e-9 {
				t.Fatalf("asymmetric result for %v + %v", a, b)
			}
		}
	}
}

func TestFigure3aShape(t *testing.T) {
	// Figure 3a (batch 64, AMP=0): ResNet-18 barely degrades with PointNet
	// or PPO, but loses ~35-40 % against DCGAN or another ResNet-18.
	rn18 := cfg(ResNet18, 64, false)

	easy := []Config{cfg(PointNet, 64, false), cfg(PPO, 64, false)}
	for _, p := range easy {
		s, _ := PairSpeed(rn18, p)
		if s < 0.90 {
			t.Errorf("ResNet-18 + %s: speed %v, want ≥0.90", p.Model.Name(), s)
		}
	}

	hard := []Config{cfg(DCGAN, 64, false), rn18}
	for _, p := range hard {
		s, _ := PairSpeed(rn18, p)
		if s > 0.80 {
			t.Errorf("ResNet-18 + %s: speed %v, want noticeable degradation (≤0.80)", p.Model.Name(), s)
		}
		if s < 0.45 {
			t.Errorf("ResNet-18 + %s: speed %v, implausibly low", p.Model.Name(), s)
		}
	}
}

func TestFigure3aAsymmetry(t *testing.T) {
	// ResNet-18 + LSTM is asymmetric in the paper (0.59 vs 0.79): the job
	// demanding more compute (ResNet-18) suffers more under time-slicing.
	rn18 := cfg(ResNet18, 64, false)
	lstm := cfg(LSTM, 64, false)
	sRN, sLSTM := PairSpeed(rn18, lstm)
	if sRN <= 0 || sLSTM <= 0 {
		t.Fatal("non-positive speed")
	}
	if sRN >= sLSTM {
		t.Errorf("expected compute-heavy ResNet-18 to suffer more: RN18=%v LSTM=%v", sRN, sLSTM)
	}
	if math.Abs(sRN-sLSTM) < 0.02 {
		t.Errorf("pair should be visibly asymmetric: RN18=%v LSTM=%v", sRN, sLSTM)
	}
}

func TestFigure2bAMPBenefit(t *testing.T) {
	// Figure 2b: enabling AMP on both jobs improves average packing speed.
	for _, m := range []Model{ResNet50, ResNet18, EfficientNet, VGG11} {
		plain := cfg(m, 64, false)
		amp := cfg(m, 64, true)
		s0a, s0b := PairSpeed(plain, plain)
		s1a, s1b := PairSpeed(amp, amp)
		if (s1a+s1b)/2 <= (s0a+s0b)/2 {
			t.Errorf("%s: AMP pair speed %v not better than plain %v",
				m.Name(), (s1a+s1b)/2, (s0a+s0b)/2)
		}
	}
}

func TestLowUtilJobProtected(t *testing.T) {
	// A near-idle job (PPO, ~11 % util) keeps ≥0.9 speed against anything.
	ppo := cfg(PPO, 64, false)
	for _, c := range AllConfigs() {
		s, _ := PairSpeed(ppo, c)
		if s < 0.85 {
			t.Errorf("PPO vs %v: speed %v, near-idle jobs should be protected", c, s)
		}
	}
}

func TestMeasureAllPairsCount(t *testing.T) {
	n := len(AllConfigs())
	want := n * (n + 1) / 2
	ms := MeasureAllPairs()
	if len(ms) != want {
		t.Fatalf("MeasureAllPairs returned %d, want %d", len(ms), want)
	}
}

func TestMeasurementConsistency(t *testing.T) {
	for _, m := range MeasureAllPairs() {
		if math.Abs(m.AvgSpeed-(m.SpeedA+m.SpeedB)/2) > 1e-9 {
			t.Fatal("AvgSpeed inconsistent")
		}
		pa, pb := m.A.Profile(), m.B.Profile()
		if math.Abs(m.AccumUtil-(pa.GPUUtil+pb.GPUUtil)) > 1e-9 {
			t.Fatal("AccumUtil inconsistent")
		}
		if m.InterferenceFree != (m.AvgSpeed >= InterferenceFreeThreshold) {
			t.Fatal("InterferenceFree flag inconsistent")
		}
	}
}

func TestFitQuadraticRecoversCurve(t *testing.T) {
	// Fitting the synthetic measurements must land near the generating curve
	// at u=100: Figure 2a's "Speed=0.92" annotation.
	ms := MeasureAllPairs()
	c0, c1, c2 := FitQuadratic(ms)
	at100 := c0 + c1*1 + c2*1
	if at100 < 0.82 || at100 > 0.97 {
		t.Fatalf("fitted curve at 100%% = %v, want ≈0.92 (±)", at100)
	}
	// And must slope downward overall.
	at0 := c0
	at180 := c0 + c1*1.8 + c2*1.8*1.8
	if at180 >= at0 {
		t.Fatalf("fitted curve not decreasing: f(0)=%v f(180)=%v", at0, at180)
	}
}

func TestMostMeasuredPairsRetain80PctAtSaturation(t *testing.T) {
	// §2.3: "When the GPU utilization summation reaches 100 %, most jobpairs
	// can still obtain over 0.8× speed."
	near := 0
	ok := 0
	for _, m := range MeasureAllPairs() {
		if m.AccumUtil >= 90 && m.AccumUtil <= 115 {
			near++
			if m.AvgSpeed > 0.8 {
				ok++
			}
		}
	}
	if near == 0 {
		t.Fatal("no measurements near saturation")
	}
	if frac := float64(ok) / float64(near); frac < 0.6 {
		t.Fatalf("only %.0f%% of near-saturation pairs keep >0.8 speed", frac*100)
	}
}

func TestCrossNodeConstant(t *testing.T) {
	if CrossNodePenalty >= 1 || CrossNodePenalty <= 0 {
		t.Fatal("CrossNodePenalty out of (0,1)")
	}
}

func BenchmarkPairSpeed(b *testing.B) {
	cfgs := AllConfigs()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		PairSpeed(cfgs[i%len(cfgs)], cfgs[(i*13+1)%len(cfgs)])
	}
}

func TestPairNoiseDeterministic(t *testing.T) {
	a, b := cfg(ResNet18, 64, false), cfg(VGG11, 32, true)
	s1a, s1b := PairSpeed(a, b)
	s2a, s2b := PairSpeed(a, b)
	if s1a != s2a || s1b != s2b {
		t.Fatal("PairSpeed not deterministic")
	}
}
