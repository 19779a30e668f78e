package lib

import "testing"

// Uses in tests do not count.
func TestGauge(t *testing.T) {
	var g Gauge
	g.Inc()
	_ = Params{Depth: Unused}
}
