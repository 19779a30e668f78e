package workload

import "math"

// Interference constants, calibrated against §2.3's characterization:
//
//   - The Figure 2a least-squares fit passes ≈0.92 when the accumulated GPU
//     utilization of a jobpair reaches 100 %.
//   - Below saturation, a job's slowdown is driven by the *partner's*
//     pressure (cache/SM scheduling churn) — a near-idle partner costs
//     almost nothing, which is what makes Tiny jobs tiny.
//   - Beyond 100 % the GPU time-slices kernels. We model a work-conserving
//     (water-filling) allocation: each job receives its demand up to a fair
//     share, leftover capacity goes to the hungrier job. The job demanding
//     more compute therefore suffers more, reproducing Figure 3a's
//     asymmetric pairs (ResNet-18 at 0.59 vs LSTM at 0.79).
//   - Combined memory-bandwidth pressure adds a further slowdown once both
//     jobs are genuinely active (the scatter below the fitted curve).
//   - Distributed jobs contend on the network when packed, hence
//     CrossNodePenalty (§3.3 rule 5 exists because of it).
const (
	// CurveSpeedAt100 is the average normalized speed at 100 % accumulated
	// utilization on the Figure 2a fitted curve.
	CurveSpeedAt100 = 0.92

	// curveQuad makes the symmetric-pair average hit CurveSpeedAt100 at
	// saturation: two 50 %-util jobs each lose attackQuad·0.25 = 0.08.
	curveQuad = 1 - CurveSpeedAt100

	// attackQuad scales the sub-saturation pressure a partner exerts:
	// penalty_i = attackQuad · (util_j/100)². 4·curveQuad so the symmetric
	// case lands on the curve.
	attackQuad = 4 * curveQuad

	// satOverhead is the kernel-switching efficiency once the GPU is
	// over-subscribed and must time-slice.
	satOverhead = 0.96

	// memContention scales the extra slowdown from combined memory-bandwidth
	// pressure; memBandwidthBudget is the combined memory-utilization level
	// (in %) below which bandwidth is effectively uncontended.
	memContention      = 0.30
	memBandwidthBudget = 65.0

	// CrossNodePenalty multiplies a distributed (multi-node) job's speed when
	// it is packed with another job, modeling NIC/PCIe contention.
	CrossNodePenalty = 0.85

	// pairNoiseAmp is the amplitude of the deterministic per-pair
	// "measurement noise" that gives the Figure 2a scatter its spread.
	pairNoiseAmp = 0.02
)

// FittedCurve is the Figure 2a fitted curve: the *average* normalized speed
// of a packed jobpair whose GPU utilizations sum to accumUtil percent.
// Quadratic decay to 0.92 at 100 %, then a time-slicing regime.
func FittedCurve(accumUtil float64) float64 {
	u := accumUtil
	if u <= 0 {
		return 1
	}
	if u <= 100 {
		f := u / 100
		return 1 - curveQuad*f*f
	}
	return clamp(CurveSpeedAt100*math.Pow(100/u, 0.8), 0.30, CurveSpeedAt100)
}

// pairNoise derives a small deterministic offset for a specific unordered
// pair of configs, standing in for run-to-run measurement variance.
func pairNoise(a, b Config) float64 {
	h := uint64(17)
	mix := func(v uint64) {
		h = (h ^ v) * 0x100000001b3
	}
	ka, kb := configKey(a), configKey(b)
	if ka > kb {
		ka, kb = kb, ka
	}
	mix(ka)
	mix(kb)
	f := float64(h>>11)/(1<<53)*2 - 1
	return f * pairNoiseAmp
}

func configKey(c Config) uint64 {
	k := uint64(c.Model)<<16 | uint64(c.BatchSize)
	if c.AMP {
		k |= 1 << 40
	}
	return k
}

// PairSpeed returns the normalized training speeds (speedA, speedB) of two
// configs packed on the same GPU(s), each in (0, 1]. 1.0 means no slowdown
// versus exclusive execution.
func PairSpeed(a, b Config) (float64, float64) {
	pa, pb := a.Profile(), b.Profile()
	return pairSpeedProfiles(pa, pb, pairNoise(a, b))
}

func pairSpeedProfiles(pa, pb Profile, noise float64) (float64, float64) {
	sa := oneSideSpeed(pa, pb) + noise
	sb := oneSideSpeed(pb, pa) + noise

	// Memory-bandwidth contention: only bites when both jobs are genuinely
	// active and their combined bandwidth appetite exceeds the budget. The
	// bandwidth-hungrier job absorbs the larger share of the hit.
	memSum := pa.GPUMemUtil + pb.GPUMemUtil
	gate := clamp(math.Min(pa.GPUUtil, pb.GPUUtil)/40, 0, 1)
	total := memContention * math.Max(0, memSum-memBandwidthBudget) / 100 * gate
	if memSum > 0 && total > 0 {
		wa := pa.GPUMemUtil / memSum
		sa -= 2 * total * wa
		sb -= 2 * total * (1 - wa)
	}

	// A near-idle job slips its few kernels into gaps regardless of partner.
	sa = blendIdle(clamp(sa, 0.05, 1), pa.GPUUtil)
	sb = blendIdle(clamp(sb, 0.05, 1), pb.GPUUtil)
	return sa, sb
}

// oneSideSpeed is the compute-only speed of the job with profile p against
// partner q: the sub-saturation partner-pressure penalty, tightened by the
// water-filling share once the GPU is over-subscribed.
func oneSideSpeed(p, q Profile) float64 {
	pressure := 1 - attackQuad*(q.GPUUtil/100)*(q.GPUUtil/100)
	u := p.GPUUtil + q.GPUUtil
	if u <= 100 {
		return pressure
	}
	share := waterfill(p.GPUUtil, q.GPUUtil) / p.GPUUtil * satOverhead
	return math.Min(pressure, share)
}

// waterfill returns the compute allocation (in utilization percent) job with
// demand d receives against a partner with demand e on a 100 %-capacity GPU:
// each job gets its demand up to a fair half; surplus flows to the hungrier
// job. Assumes d+e > 100.
func waterfill(d, e float64) float64 {
	if d <= 50 {
		return d
	}
	if e <= 50 {
		return math.Min(d, 100-e)
	}
	return 50
}

// blendIdle lifts the speed of very-low-utilization jobs toward 1.
func blendIdle(s, util float64) float64 {
	if util >= 40 {
		return s
	}
	w := (40 - util) / 40
	return clamp(s+(1-s)*w*0.9, 0.05, 1)
}

// PairMeasurement is one colocation measurement: two configs, their
// normalized speeds, and the accumulated GPU utilization — one orange point
// of Figure 2a.
type PairMeasurement struct {
	A, B             Config
	SpeedA, SpeedB   float64
	AccumUtil        float64
	AvgSpeed         float64
	CombinedMemMB    float64
	WouldOOM         bool // combined footprint exceeds GPU memory
	InterferenceFree bool // avg speed ≥ 0.85 threshold used in Figure 5
}

// InterferenceFreeThreshold is the normalized-speed threshold §3.3 uses to
// call a packable jobpair "interference-free" (98.1 % of packable pairs
// clear it in the paper).
const InterferenceFreeThreshold = 0.85

// MeasureAllPairs reproduces the §2.3 characterization sweep: every
// unordered pair of Table 1 configurations (including self-pairs) is
// "measured" once. This is the training set for the Packing Analyze Model
// and the point cloud behind Figures 2a and 5.
func MeasureAllPairs() []PairMeasurement {
	configs := AllConfigs()
	var out []PairMeasurement
	for i := 0; i < len(configs); i++ {
		for j := i; j < len(configs); j++ {
			out = append(out, MeasurePair(configs[i], configs[j]))
		}
	}
	return out
}

// MeasurePair measures a single colocation.
func MeasurePair(a, b Config) PairMeasurement {
	sa, sb := PairSpeed(a, b)
	pa, pb := a.Profile(), b.Profile()
	avg := (sa + sb) / 2
	return PairMeasurement{
		A: a, B: b,
		SpeedA: sa, SpeedB: sb,
		AccumUtil:        pa.GPUUtil + pb.GPUUtil,
		AvgSpeed:         avg,
		CombinedMemMB:    pa.GPUMemMB + pb.GPUMemMB,
		WouldOOM:         pa.GPUMemMB+pb.GPUMemMB > GPUMemMBCap*0.92,
		InterferenceFree: avg >= InterferenceFreeThreshold,
	}
}

// FitQuadratic least-squares-fits speed = c0 + c1·u + c2·u² over a set of
// measurements (u = accumulated utilization / 100), reproducing the fitted
// curve overlay of Figure 2a from the synthetic point cloud.
func FitQuadratic(ms []PairMeasurement) (c0, c1, c2 float64) {
	var s [5]float64 // sums of u^k
	var t [3]float64 // sums of y·u^k
	for _, m := range ms {
		u := m.AccumUtil / 100
		y := m.AvgSpeed
		up := 1.0
		for k := 0; k < 5; k++ {
			s[k] += up
			if k < 3 {
				t[k] += y * up
			}
			up *= u
		}
	}
	a := [3][3]float64{
		{s[0], s[1], s[2]},
		{s[1], s[2], s[3]},
		{s[2], s[3], s[4]},
	}
	det := det3(a)
	if math.Abs(det) < 1e-12 {
		return 1, 0, 0
	}
	c0 = det3(replaceCol(a, 0, t)) / det
	c1 = det3(replaceCol(a, 1, t)) / det
	c2 = det3(replaceCol(a, 2, t)) / det
	return c0, c1, c2
}

func det3(a [3][3]float64) float64 {
	return a[0][0]*(a[1][1]*a[2][2]-a[1][2]*a[2][1]) -
		a[0][1]*(a[1][0]*a[2][2]-a[1][2]*a[2][0]) +
		a[0][2]*(a[1][0]*a[2][1]-a[1][1]*a[2][0])
}

func replaceCol(a [3][3]float64, col int, v [3]float64) [3][3]float64 {
	for r := 0; r < 3; r++ {
		a[r][col] = v[r]
	}
	return a
}
