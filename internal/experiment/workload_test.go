package experiment

import (
	"reflect"
	"testing"

	"clustercast/internal/obs"
)

// workloadCounters are the telemetry totals the determinism gate pins
// alongside the CSV bytes.
var workloadCounters = []string{
	"workload.flows", "workload.deliveries", "workload.cross_collisions",
	"workload.discovery_requests", "workload.discovery_found", "workload.discovery_failed",
	"mac.multi_runs", "mac.multi_flows", "mac.cross_collisions",
}

// TestWorkloadFiguresBitIdentical is the workload determinism gate: the
// traffic and discovery figures produce the CSV bytes AND the workload.*
// / mac.multi* metric totals recorded when the scalar multi-source loop
// was the production engine, at any worker count. Flow seeds are counter
// keys and every replicate's spec seed is a pure function of the
// replicate index, so no scheduling order can leak into the numbers.
func TestWorkloadFiguresBitIdentical(t *testing.T) {
	figs := map[string]struct {
		mk     func() *Figure
		csv    string
		totals map[string]int64
	}{
		"traffic": {
			func() *Figure { return Traffic([]float64{0.1, 0.5}, 25, 8, 10, 2, 19, desRule) },
			"2690b42528c2fc77",
			map[string]int64{
				"workload.flows": 1920, "workload.deliveries": 27940, "workload.cross_collisions": 8394,
				"workload.discovery_requests": 0, "workload.discovery_found": 0, "workload.discovery_failed": 0,
				"mac.multi_runs": 192, "mac.multi_flows": 1920, "mac.cross_collisions": 8394,
			},
		},
		"discovery": {
			func() *Figure { return Discovery([]float64{0.1, 0.5}, 25, 8, 8, 2, 19, desRule) },
			"910a8b4c1d349dc4",
			map[string]int64{
				"workload.flows": 0, "workload.deliveries": 0, "workload.cross_collisions": 0,
				"workload.discovery_requests": 1536, "workload.discovery_found": 956, "workload.discovery_failed": 580,
				"mac.multi_runs": 192, "mac.multi_flows": 1536, "mac.cross_collisions": 6446,
			},
		},
	}
	obs.Enable()
	defer obs.Disable()
	defer SetParallelism(0)

	run := func(workers int, mk func() *Figure) (string, map[string]int64) {
		SetParallelism(workers)
		before := map[string]int64{}
		for _, n := range workloadCounters {
			before[n] = obs.Default.Counter(n).Value()
		}
		csv := mk().CSV()
		deltas := map[string]int64{}
		for _, n := range workloadCounters {
			deltas[n] = obs.Default.Counter(n).Value() - before[n]
		}
		return csv, deltas
	}

	for name, f := range figs {
		for _, workers := range []int{1, 4, 8} {
			csv, totals := run(workers, f.mk)
			if got := csvDigest(csv); got != f.csv {
				t.Errorf("%s: CSV digest %s at workers=%d, recorded %s", name, got, workers, f.csv)
			}
			if !reflect.DeepEqual(totals, f.totals) {
				t.Errorf("%s: metric totals differ at workers=%d:\n got %v\nwant %v",
					name, workers, totals, f.totals)
			}
		}
	}
}
