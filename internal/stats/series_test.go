package stats

import (
	"math"
	"testing"

	"clustercast/internal/obs"
)

// seriesTable is a deterministic (x, ok) table for k series: series j's
// replicate rep is skipped when its hash is divisible by skipEvery[j]
// (1 skips everything, 0 never skips) and otherwise observes
// mean[j] + spread[j]·u with u uniform in [0, 1).
type seriesTable struct {
	seed      uint64
	skipEvery []uint64
	mean      []float64
	spread    []float64
}

func (tb seriesTable) at(j, rep int) (float64, bool) {
	h := tb.seed ^ uint64(j+1)*0xBF58476D1CE4E5B9 ^ uint64(rep)*0x9E3779B97F4A7C15
	h ^= h >> 31
	h *= 0x94D049BB133111EB
	h ^= h >> 29
	if e := tb.skipEvery[j]; e != 0 && h%e == 0 {
		return 0, false
	}
	return tb.mean[j] + tb.spread[j]*float64(h>>11)/(1<<53), true
}

// replicateCounters snapshots the replicate.* totals.
func replicateCounters() [2]int64 {
	return [2]int64{
		obs.Default.Counter("replicate.observations").Value(),
		obs.Default.Counter("replicate.skips").Value(),
	}
}

// checkSeriesAgree runs the table's series once through ReplicateSeries
// and once as independent Replicate loops, and fails unless every
// Summary and error is bit-identical, each series is live at exactly the
// replicates its own loop consults, and the replicate.* counters move by
// the same amounts.
func checkSeriesAgree(t *testing.T, rule StopRule, tb seriesTable) {
	t.Helper()
	obs.Enable()
	defer obs.Disable()
	k := len(tb.skipEvery)

	before := replicateCounters()
	want := make([]*Summary, k)
	wantErr := make([]error, k)
	wantReps := make([][]int, k)
	for j := 0; j < k; j++ {
		want[j], wantErr[j] = Replicate(rule, func(rep int) (float64, bool) {
			wantReps[j] = append(wantReps[j], rep)
			return tb.at(j, rep)
		})
	}
	mid := replicateCounters()

	gotReps := make([][]int, k)
	next := 0
	got, gotErr := ReplicateSeries(rule, k, func(rep int, live []bool, xs []float64, oks []bool) {
		if rep != next {
			t.Fatalf("draw called for rep %d, want %d", rep, next)
		}
		next++
		for j, l := range live {
			if oks[j] {
				t.Fatalf("rep %d: oks[%d] not cleared before the draw", rep, j)
			}
			if l {
				gotReps[j] = append(gotReps[j], rep)
				xs[j], oks[j] = tb.at(j, rep)
			}
		}
	})
	after := replicateCounters()

	for j := 0; j < k; j++ {
		if gotErr[j] != wantErr[j] {
			t.Errorf("series %d: err %v, Replicate %v", j, gotErr[j], wantErr[j])
		}
		if *got[j] != *want[j] {
			t.Errorf("series %d: summary %+v, Replicate %+v", j, *got[j], *want[j])
		}
		if len(gotReps[j]) != len(wantReps[j]) {
			t.Errorf("series %d: live at %d replicates, Replicate consulted %d", j, len(gotReps[j]), len(wantReps[j]))
			continue
		}
		for i := range gotReps[j] {
			if gotReps[j][i] != wantReps[j][i] {
				t.Errorf("series %d: live reps %v, Replicate consulted %v", j, gotReps[j], wantReps[j])
				break
			}
		}
	}
	for c := range before {
		if d, w := after[c]-mid[c], mid[c]-before[c]; d != w {
			t.Errorf("replicate counter %d moved by %d, independent loops by %d", c, d, w)
		}
	}
	// The draw runs once per replicate up to the last one any series uses.
	last := 0
	for _, reps := range wantReps {
		if n := len(reps); n > 0 && reps[n-1]+1 > last {
			last = reps[n-1] + 1
		}
	}
	if next != last {
		t.Errorf("draw ran for %d replicates, the longest series needs %d", next, last)
	}
}

// TestReplicateSeriesMatchesReplicate: series that stop at different
// replicates (a tight one at MinReplicates, a noisy one at
// MaxReplicates), skipping series, and an all-skip series that ends in
// ErrNoObservations each match their own Replicate loop exactly.
func TestReplicateSeriesMatchesReplicate(t *testing.T) {
	cases := []struct {
		name string
		rule StopRule
		tb   seriesTable
	}{
		{"stop-at-different-reps", StopRule{Confidence: 0.99, RelHalfWidth: 0.05, MinReplicates: 10, MaxReplicates: 200},
			seriesTable{1, []uint64{0, 0, 0}, []float64{10, 10, 1}, []float64{0.1, 4, 10}}},
		{"skips", StopRule{Confidence: 0.95, RelHalfWidth: 0.1, MinReplicates: 5, MaxReplicates: 80},
			seriesTable{2, []uint64{2, 3, 7, 0}, []float64{5, 5, 5, 5}, []float64{1, 3, 6, 9}}},
		{"all-skip", StopRule{MinReplicates: 3, MaxReplicates: 4},
			seriesTable{3, []uint64{1, 0, 2}, []float64{1, 1, 1}, []float64{0, 1, 1}}},
		{"only-all-skip", StopRule{MaxReplicates: 2},
			seriesTable{4, []uint64{1, 1}, []float64{0, 0}, []float64{0, 0}}},
		{"zero-series", PaperRule(), seriesTable{5, nil, nil, nil}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { checkSeriesAgree(t, c.rule, c.tb) })
	}
	// The all-skip cases must actually reach the empty-summary error.
	sums, errs := ReplicateSeries(StopRule{MaxReplicates: 2}, 1, func(int, []bool, []float64, []bool) {})
	if errs[0] != ErrNoObservations || sums[0].N() != 0 {
		t.Fatalf("all-skip series: N=%d err=%v, want 0 and ErrNoObservations", sums[0].N(), errs[0])
	}
}

// FuzzReplicateSeriesAgree drives up to eight series from a random (x, ok)
// table under a random small rule against independent Replicate loops.
func FuzzReplicateSeriesAgree(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(10), uint8(40), uint64(0x0102030405060708))
	f.Add(uint64(7), uint8(1), uint8(3), uint8(4), uint64(0x0101))
	f.Add(uint64(99), uint8(8), uint8(1), uint8(1), uint64(0))
	f.Fuzz(func(t *testing.T, seed uint64, k, minReps, maxReps uint8, skips uint64) {
		rule := StopRule{
			Confidence:    0.95,
			RelHalfWidth:  0.1,
			MinReplicates: 1 + int(minReps%40),
			MaxReplicates: 1 + int(maxReps%60),
		}
		tb := seriesTable{seed: seed}
		for j := 0; j < int(k%9); j++ {
			tb.skipEvery = append(tb.skipEvery, (skips>>(8*j))%8) // 0 never, 1 always
			tb.mean = append(tb.mean, float64(j%3)*5)
			tb.spread = append(tb.spread, math.Ldexp(1, j-3))
		}
		checkSeriesAgree(t, rule, tb)
	})
}
