package experiment

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"clustercast/internal/stats"
)

// desRule keeps the figure bit-identity sweeps cheap but multi-replicate.
var desRule = stats.StopRule{Confidence: 0.95, RelHalfWidth: 0.5, MinReplicates: 12, MaxReplicates: 12}

// csvDigest is the first 16 hex digits of a CSV's SHA-256.
func csvDigest(csv string) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(csv)))[:16]
}

// TestDESFiguresBitIdentical is the figure-level gate of the calendar
// engines: every figure whose estimators run an event-driven engine —
// the ideal radio (Lossy, Fig8), gossip under loss, the timed
// broadcast-storm suppressors (Storm), the slotted MAC (Collision), the
// construction wire protocol (MessageComplexity) and the fault sweep —
// must produce the CSV bytes recorded when the scalar loops were the
// production engines, at any worker count.
func TestDESFiguresBitIdentical(t *testing.T) {
	figs := map[string]struct {
		mk   func() *Figure
		want string
	}{
		"lossy":  {func() *Figure { return Lossy([]float64{0, 0.25}, 25, 8, 19, desRule) }, "ce97ce37f9181aae"},
		"gossip": {func() *Figure { return GossipAblation([]float64{0.5, 0.8}, []float64{0, 0.2}, 25, 8, 19, desRule) }, "114ea69270ffb796"},
		"storm":  {func() *Figure { return Storm([]float64{8, 14}, 25, 19, desRule) }, "20abf1a2f9d02ffb"},
		"coll":   {func() *Figure { return Collision([]float64{8, 14}, 25, 6, 19, desRule) }, "2d7ef97e12f29169"},
		"msg":    {func() *Figure { return MessageComplexity([]int{20, 35}, 6, 19, desRule) }, "936b8b473d2362f1"},
		"fig8":   {func() *Figure { return Fig8(8, []int{20, 30}, 19, desRule) }, "0464ed081df2060f"},
		"faults": {func() *Figure { return Faults([]float64{0, 0.5}, 25, 8, 19, desRule) }, "029b3a16bea39d50"},
	}
	defer SetParallelism(0)
	for name, f := range figs {
		for _, workers := range []int{1, 4, 8} {
			SetParallelism(workers)
			if got := csvDigest(f.mk().CSV()); got != f.want {
				t.Errorf("%s: CSV digest %s at %d workers, recorded %s", name, got, workers, f.want)
			}
		}
	}
}
