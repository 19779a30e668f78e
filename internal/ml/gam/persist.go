package gam

import (
	"encoding/json"
	"fmt"
	"io"
)

// JSON persistence: a trained GAM is just its intercept plus lookup tables,
// so it serializes losslessly — the deployment story behind Lucid's A2
// property (ship a trained model to the cluster manager; no retraining, no
// framework dependency).

// featureDTO mirrors feature for encoding.
type featureDTO struct {
	Name  string    `json:"name"`
	Edges []float64 `json:"edges"`
	Score []float64 `json:"score"`
	Count []int     `json:"count"`
}

// modelDTO is the on-disk layout.
type modelDTO struct {
	Intercept float64      `json:"intercept"`
	Features  []featureDTO `json:"features"`
}

// Save writes the model as JSON.
func (m *Model) Save(w io.Writer) error {
	dto := modelDTO{Intercept: m.intercept}
	for _, f := range m.feats {
		dto.Features = append(dto.Features, featureDTO{
			Name: f.name, Edges: f.edges, Score: f.score, Count: f.count,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(dto)
}

// Load reads a model previously written by Save.
func Load(r io.Reader) (*Model, error) {
	var dto modelDTO
	if err := json.NewDecoder(r).Decode(&dto); err != nil {
		return nil, fmt.Errorf("gam: load: %w", err)
	}
	m := &Model{intercept: dto.Intercept}
	for i, fd := range dto.Features {
		if len(fd.Score) != len(fd.Edges)+1 || len(fd.Count) != len(fd.Score) {
			return nil, fmt.Errorf("gam: load: feature %d has inconsistent bin counts", i)
		}
		m.feats = append(m.feats, &feature{
			name: fd.Name, edges: fd.Edges, score: fd.Score, count: fd.Count,
		})
	}
	return m, nil
}
