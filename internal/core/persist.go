package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/feat"
	"repro/internal/ml/dtree"
	"repro/internal/ml/gam"
	"repro/internal/workload"
)

// Bundle persistence: a trained Models set serializes to one JSON document,
// so the models an operator trained offline (or a previous scheduler
// instance refined through the Update Engine) deploy without retraining —
// the low-integration-cost story of A2.

// bundleDTO is the on-disk layout; the three models and the estimator's
// featurizer are embedded as raw JSON produced by their own Save methods.
type bundleDTO struct {
	Thresholds    workload.Thresholds `json:"thresholds"`
	AnalyzerTree  json.RawMessage     `json:"analyzer_tree"`
	EstimatorGAM  json.RawMessage     `json:"estimator_gam"`
	Featurizer    json.RawMessage     `json:"featurizer"`
	ThroughputGAM json.RawMessage     `json:"throughput_gam"`
	TPBaseline    float64             `json:"throughput_baseline"`
	TPRecent      []float64           `json:"throughput_recent"`
	Monotonic     bool                `json:"monotonic_gpu_num"`
	// EdgeRows is the history length behind the estimator's bin edges; a
	// bundle without it refits in full next time.
	EdgeRows int `json:"estimator_edge_rows,omitempty"`
}

// Save serializes the bundle (History is not persisted — the Update Engine
// resumes from freshly finished jobs).
func (m *Models) Save(w io.Writer) error {
	raw := func(save func(io.Writer) error) (json.RawMessage, error) {
		var buf bytes.Buffer
		if err := save(&buf); err != nil {
			return nil, err
		}
		return json.RawMessage(buf.Bytes()), nil
	}
	dto := bundleDTO{
		Thresholds: m.Analyzer.thresholds,
		TPBaseline: m.Throughput.baseline,
		TPRecent:   m.Throughput.recent,
		Monotonic:  m.Estimator.monotonicGPUNum,
		EdgeRows:   m.Estimator.edgeRows,
	}
	var err error
	if dto.AnalyzerTree, err = raw(m.Analyzer.tree.Save); err != nil {
		return fmt.Errorf("core: save analyzer: %w", err)
	}
	if dto.EstimatorGAM, err = raw(m.Estimator.model.Save); err != nil {
		return fmt.Errorf("core: save estimator: %w", err)
	}
	if dto.Featurizer, err = raw(m.Estimator.feat.Save); err != nil {
		return fmt.Errorf("core: save featurizer: %w", err)
	}
	if dto.ThroughputGAM, err = raw(m.Throughput.model.Save); err != nil {
		return fmt.Errorf("core: save throughput: %w", err)
	}
	return json.NewEncoder(w).Encode(dto)
}

// LoadModels reads a bundle written by Save. Truncated, corrupted or
// wrong-format input is rejected with a descriptive error — a missing model
// section must never load as a silently zero-valued model that would then
// mis-score every job.
func LoadModels(r io.Reader) (*Models, error) {
	dec := json.NewDecoder(r)
	var dto bundleDTO
	if err := dec.Decode(&dto); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, fmt.Errorf("core: load bundle: input empty or truncated: %w", err)
		}
		return nil, fmt.Errorf("core: load bundle: %w", err)
	}
	// A syntactically-valid document with an absent or null section would
	// otherwise hand an empty reader to the sub-loader — and a sub-loader
	// that tolerates `null` returns a zero-valued model. Reject up front,
	// naming the missing section.
	for _, sec := range []struct {
		name string
		raw  json.RawMessage
	}{
		{"analyzer_tree", dto.AnalyzerTree},
		{"estimator_gam", dto.EstimatorGAM},
		{"featurizer", dto.Featurizer},
		{"throughput_gam", dto.ThroughputGAM},
	} {
		trimmed := bytes.TrimSpace(sec.raw)
		if len(trimmed) == 0 || bytes.Equal(trimmed, []byte("null")) {
			return nil, fmt.Errorf("core: load bundle: missing %q section (truncated file or not a model bundle)", sec.name)
		}
	}
	// Anything after the document means the file is not a bundle (or two
	// bundles were concatenated); loading just the first silently would hide
	// the corruption.
	if tok, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("core: load bundle: trailing data after bundle document (next token %v)", tok)
	}
	tree, err := dtree.Load(bytes.NewReader(dto.AnalyzerTree))
	if err != nil {
		return nil, fmt.Errorf("core: load analyzer: %w", err)
	}
	estGAM, err := gam.Load(bytes.NewReader(dto.EstimatorGAM))
	if err != nil {
		return nil, fmt.Errorf("core: load estimator: %w", err)
	}
	fz, err := feat.LoadDurationFeaturizer(bytes.NewReader(dto.Featurizer))
	if err != nil {
		return nil, fmt.Errorf("core: load featurizer: %w", err)
	}
	tpGAM, err := gam.Load(bytes.NewReader(dto.ThroughputGAM))
	if err != nil {
		return nil, fmt.Errorf("core: load throughput: %w", err)
	}
	return &Models{
		Analyzer: &PackingAnalyzer{tree: tree, thresholds: dto.Thresholds},
		Estimator: &WorkloadEstimator{
			feat:            fz,
			model:           estGAM,
			cache:           map[int]float64{},
			monotonicGPUNum: dto.Monotonic,
			params:          estimatorGAMParams(),
			edgeRows:        dto.EdgeRows,
		},
		Throughput: &ThroughputModel{
			model:    tpGAM,
			baseline: dto.TPBaseline,
			recent:   dto.TPRecent,
		},
	}, nil
}
