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
// traffic and discovery figures produce the CSV bytes recorded when the
// scalar multi-source loop was the production engine, and the same
// workload.* / mac.multi* metric totals at any worker count. Flow seeds
// are counter keys and every replicate's spec seed is a pure function of
// the replicate index, so no scheduling order can leak into the numbers.
//
// The totals count engine runs. Under desRule every series takes exactly
// replicates 0..11 (12 observations, no skips at these sizes), so the
// per-series loops (trafficOracle, discoveryOracle) ran 8 series × 2
// points × 12 = 192 engines, two identical runs per relay structure and
// replicate. The shared-replicate runner makes that run once and feeds
// both of the structure's metrics from it: 4 × 2 × 12 = 96 runs, and every
// additive total is exactly half the per-series loops' value.
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
				"workload.flows": 1920 / 2, "workload.deliveries": 27940 / 2, "workload.cross_collisions": 8394 / 2,
				"workload.discovery_requests": 0, "workload.discovery_found": 0, "workload.discovery_failed": 0,
				"mac.multi_runs": 192 / 2, "mac.multi_flows": 1920 / 2, "mac.cross_collisions": 8394 / 2,
			},
		},
		"discovery": {
			func() *Figure { return Discovery([]float64{0.1, 0.5}, 25, 8, 8, 2, 19, desRule) },
			"910a8b4c1d349dc4",
			map[string]int64{
				"workload.flows": 0, "workload.deliveries": 0, "workload.cross_collisions": 0,
				"workload.discovery_requests": 1536 / 2, "workload.discovery_found": 956 / 2, "workload.discovery_failed": 580 / 2,
				"mac.multi_runs": 192 / 2, "mac.multi_flows": 1536 / 2, "mac.cross_collisions": 6446 / 2,
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
