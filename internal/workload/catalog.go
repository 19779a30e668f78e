// Package workload models the DL training workloads of Table 1 in the Lucid
// paper and the colocation interference behaviour characterized in §2.3
// (Figures 2, 3 and 5).
//
// The paper measured these models on real RTX 3090 GPUs; this package is the
// synthetic substitute: every (model, dataset, batch size, AMP) configuration
// carries a resource profile — GPU utilization, GPU memory footprint and GPU
// memory utilization, the three non-intrusive metrics Lucid's profiler
// collects — and an analytic interference model converts two profiles into
// the pair's normalized training speeds. Constants are calibrated so the
// published artifacts reproduce in shape: the Figure 2a fitted curve passes
// ≈0.92 at 100 % accumulated utilization, low-utilization partners (PointNet,
// PPO) barely slow ResNet-18 down while DCGAN and a second ResNet-18 cost it
// ~35–40 % (Figure 3a), and mixed-precision training packs better
// (Figure 2b).
package workload

import (
	"fmt"
	"math"
)

// Domain is the task domain of a workload (the symbol column of Table 1).
type Domain int

const (
	DomainImgClassification Domain = iota // ✽ image classification
	DomainImgTranslation                  // ❃ image-to-image translation
	DomainPointCloud                      // ❉ 3D point cloud classification
	DomainQA                              // ♦ question answering
	DomainLM                              // ✦ language modeling
	DomainTranslation                     // ◆ language translation
	DomainRL                              // ❖ physics control (Box2D)
	DomainRecommendation                  // ★ movie recommendation
)

// Model identifies one of the fourteen Table 1 models.
type Model int

const (
	ResNet50 Model = iota
	MobileNetV3
	ResNet18
	MobileNetV2
	EfficientNet
	VGG11
	DCGAN
	PointNet
	BERT
	LSTM
	Transformer
	PPO
	TD3
	NeuMF
	numModels
)

// modelSpec is the static, per-model portion of the catalog.
type modelSpec struct {
	name       string
	dataset    string
	domain     Domain
	batches    []int // allowed batch sizes (Table 1)
	ampAllowed bool  // whether a mixed-precision variant exists

	// Base resource profile at batch size 64 without AMP. Utilization
	// values are percentages; memory is MB on a 24 GB GPU.
	baseUtil    float64
	baseMemMB   float64
	baseMemUtil float64
}

var modelSpecs = [numModels]modelSpec{
	ResNet50:     {"ResNet-50", "ImageNet", DomainImgClassification, []int{32, 64, 128}, true, 92, 14000, 60},
	MobileNetV3:  {"MobileNetV3", "ImageNet", DomainImgClassification, []int{32, 64, 128}, true, 74, 9000, 44},
	ResNet18:     {"ResNet-18", "CIFAR-10", DomainImgClassification, []int{32, 64, 128}, true, 62, 2600, 40},
	MobileNetV2:  {"MobileNetV2", "CIFAR-10", DomainImgClassification, []int{32, 64, 128}, true, 55, 2800, 34},
	EfficientNet: {"EfficientNet", "CIFAR-10", DomainImgClassification, []int{32, 64, 128}, true, 88, 6200, 54},
	VGG11:        {"VGG-11", "CIFAR-10", DomainImgClassification, []int{32, 64, 128}, true, 71, 4600, 48},
	DCGAN:        {"DCGAN", "LSUN", DomainImgTranslation, []int{32, 64, 128}, true, 80, 5400, 56},
	PointNet:     {"PointNet", "ShapeNet", DomainPointCloud, []int{32, 64, 128}, true, 22, 2000, 14},
	BERT:         {"BERT", "SQuAD", DomainQA, []int{32}, true, 95, 16500, 64},
	LSTM:         {"LSTM", "Wikitext2", DomainLM, []int{64, 128}, true, 50, 3100, 70},
	Transformer:  {"Transformer", "Multi30k", DomainTranslation, []int{32, 64}, false, 66, 5200, 50},
	PPO:          {"PPO", "LunarLander", DomainRL, []int{32, 64, 128}, false, 11, 1200, 7},
	TD3:          {"TD3", "BipedalWalker", DomainRL, []int{32, 64, 128}, false, 15, 1400, 9},
	NeuMF:        {"NeuMF", "MovieLens", DomainRecommendation, []int{64, 128}, true, 36, 2300, 38},
}

// Name returns the model's display name ("ResNet-18").
func (m Model) Name() string { return modelSpecs[m].name }

// Dataset returns the dataset the model trains on in Table 1.
func (m Model) Dataset() string { return modelSpecs[m].dataset }

// Domain returns the model's task domain.
func (m Model) Domain() Domain { return modelSpecs[m].domain }

// BatchSizes returns the batch sizes Table 1 lists for the model.
func (m Model) BatchSizes() []int { return modelSpecs[m].batches }

// AMPAllowed reports whether Table 1 lists a mixed-precision variant.
func (m Model) AMPAllowed() bool { return modelSpecs[m].ampAllowed }

// Config is one training configuration: a (model, batch size, AMP) cell of
// Table 1. Configs are the unit the profiler characterizes and the packing
// analyzer classifies.
type Config struct {
	Model     Model
	BatchSize int
	AMP       bool
}

// String renders the config like "ResNet-18/CIFAR-10 bs=64 amp=0".
func (c Config) String() string {
	amp := 0
	if c.AMP {
		amp = 1
	}
	return fmt.Sprintf("%s/%s bs=%d amp=%d", c.Model.Name(), c.Model.Dataset(), c.BatchSize, amp)
}

// Valid reports whether the config is a cell of Table 1.
func (c Config) Valid() bool {
	if c.Model < 0 || c.Model >= numModels {
		return false
	}
	spec := modelSpecs[c.Model]
	if c.AMP && !spec.ampAllowed {
		return false
	}
	for _, b := range spec.batches {
		if b == c.BatchSize {
			return true
		}
	}
	return false
}

// Profile is the non-intrusive resource profile of a config on one GPU —
// exactly the three metrics Lucid's profiler reads from NVIDIA-SMI/DCGM
// (§3.2), plus the AMP flag users may optionally declare (§3.5.1).
type Profile struct {
	GPUUtil    float64 // % of time ≥1 kernel is resident
	GPUMemMB   float64 // memory footprint, MB
	GPUMemUtil float64 // % of time memory is read/written
	AMP        bool
}

// GPUMemMBCap is the memory capacity of the simulated RTX 3090 GPUs.
const GPUMemMBCap = 24000

// Profile returns the config's resource profile. Utilization grows mildly
// with batch size (bigger batches keep the SMs busier), memory grows roughly
// linearly with activations, and AMP trims both (Tensor-Core math shortens
// kernels and halves activation precision).
func (c Config) Profile() Profile {
	spec := modelSpecs[c.Model]
	scale := float64(c.BatchSize) / 64.0
	util := spec.baseUtil * pow025(scale)
	mem := spec.baseMemMB * (0.55 + 0.45*scale)
	memUtil := spec.baseMemUtil * pow025(scale)
	if c.AMP {
		util *= 0.85
		mem *= 0.70
		memUtil *= 0.90
	}
	return Profile{
		GPUUtil:    clamp(util, 1, 99),
		GPUMemMB:   clamp(mem, 100, GPUMemMBCap),
		GPUMemUtil: clamp(memUtil, 0.5, 99),
		AMP:        c.AMP,
	}
}

func pow025(x float64) float64 {
	return math.Sqrt(math.Sqrt(x))
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// AllConfigs enumerates every Table 1 cell, in deterministic order.
func AllConfigs() []Config {
	var out []Config
	for m := Model(0); m < numModels; m++ {
		spec := modelSpecs[m]
		for _, b := range spec.batches {
			out = append(out, Config{Model: m, BatchSize: b})
			if spec.ampAllowed {
				out = append(out, Config{Model: m, BatchSize: b, AMP: true})
			}
		}
	}
	return out
}

// ConfigByName looks up a model by display name; ok is false if unknown.
func ConfigByName(name string, batch int, amp bool) (Config, bool) {
	for m := Model(0); m < numModels; m++ {
		if modelSpecs[m].name == name {
			c := Config{Model: m, BatchSize: batch, AMP: amp}
			if c.Valid() {
				return c, true
			}
			return Config{}, false
		}
	}
	return Config{}, false
}
