package chaos

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// TestPinnedSeedsKeepTheirSchedules hashes the fault notes each scenario
// generator draws for the CI root seed and the 24 seeds after it. Every
// dimension draws from one rng stream, so a draw dropped, added or moved
// changes the notes of the dimensions after it, and the hash with them. The
// expected hashes are those the generators gave while they still drew a
// Step 2 table backend, with that draw's "table backend" note left out.
func TestPinnedSeedsKeepTheirSchedules(t *testing.T) {
	prof, err := ProfileByName("small")
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []struct {
		name   string
		faults func(seed int64) []string
		want   string
	}{
		{"build", func(seed int64) []string { return GenerateScenario(seed, prof).Faults }, "2290e00b3bdf2cc2b04959d6bd566774e02673505f50164605ca07221b2d1c93"},
		{"dist", func(seed int64) []string { return GenerateDistScenario(seed, prof).Faults }, "e007e2ca61797630d1ba1c5b1093a62bd8bc06556a96c83aada4f46e4aae8c91"},
		{"server", func(seed int64) []string { return GenerateServerScenario(seed, prof).Faults }, "0555093040aaa0f4b5c36640f9397c7d2edceefeea927c72b16791da058995d5"},
	} {
		h := sha256.New()
		for seed := int64(20240807); seed < 20240807+25; seed++ {
			fmt.Fprintf(h, "%d %q\n", seed, g.faults(seed))
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != g.want {
			t.Errorf("%s: the schedules of seeds 20240807+0…24 hash to %s, want %s", g.name, got, g.want)
		}
	}
}
