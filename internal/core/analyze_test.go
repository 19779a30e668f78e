package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/workload"
)

// TestPackingAnalyzerTreePinned pins the Save bytes of the default Packing
// Analyze Model. Class counts are integers, so no change to how the tree
// grower orders or sums rows may move this hash: every Lucid golden digest
// depends on this tree. The hash was computed on commit fc8b149.
func TestPackingAnalyzerTreePinned(t *testing.T) {
	const want = "4a065f8c99ce081ef4a1dceb7e56e848820fb0f2e1704e5477c0c061cfc31c36"
	a, err := TrainPackingAnalyzer(workload.DefaultThresholds)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := a.tree.Save(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("packing analyzer tree hash %s, want %s\n%s", got, want, buf.String())
	}
}
