package experiment

import (
	"fmt"
	"math"
	"testing"

	"clustercast/internal/backbone"
	"clustercast/internal/broadcast"
	"clustercast/internal/cluster"
	"clustercast/internal/coverage"
	"clustercast/internal/dynamicb"
	"clustercast/internal/stats"
	"clustercast/internal/topology"
	"clustercast/internal/workload"
)

// The per-series oracles below are the figures as they ran before the
// shared-replicate runner: every series redraws its own map-based sample
// (Scenario.Sample + cluster.LowestID) in its own stats.Replicate loop,
// and every traffic/discovery series runs its own multi-source MAC
// engine. sweepSeries must reproduce each of their Points exactly.

// trafficOracle is Traffic with one replication loop per series.
func trafficOracle(rates []float64, n int, d float64, flows, jitter int, seed uint64, rule stats.StopRule) *Figure {
	type metric struct {
		name    string
		measure func(tr *workload.TrafficResult) float64
	}
	metrics := []metric{
		{"delivery", func(tr *workload.TrafficResult) float64 { return tr.DeliveryRatio }},
		{"throughput", func(tr *workload.TrafficResult) float64 { return tr.Throughput }},
	}
	var series []Series
	for _, bk := range trafficBackbones() {
		bk := bk
		for _, m := range metrics {
			m := m
			s := Series{Name: bk.name + "-" + m.name, Points: make([]Point, len(rates))}
			ForEachPoint(len(rates), func(i int) {
				rate := rates[i]
				sc := DefaultScenario(n, d, seed)
				sc.Rule = rule
				mw := broadcast.NewMultiMACWorkspace() // replicates run sequentially
				sum, err := stats.Replicate(sc.Rule, func(rep int) (float64, bool) {
					nw, cl, _, ok := clusteredSample(sc, fmt.Sprintf("traffic-%g", rate), rep)
					if !ok {
						return 0, false
					}
					spec := workload.Spec{
						Process: workload.Poisson, Rate: rate, Flows: flows,
						FanOut: 1, Seed: sc.Seed ^ uint64(rep),
					}
					fl, err := spec.Generate(nw.N())
					if err != nil {
						return 0, false
					}
					tr := workload.RunTraffic(nw.G, fl, bk.proto(nw, cl),
						broadcast.MACOptions{Jitter: jitter}, mw.Run)
					return m.measure(tr), true
				})
				if err != nil {
					s.Points[i] = Point{X: rate}
					return
				}
				s.Points[i] = Point{X: rate, Mean: sum.Mean(), CI: sum.CI(0.99), Reps: sum.N()}
			})
			series = append(series, s)
		}
	}
	return &Figure{
		ID:     "traffic",
		Title:  fmt.Sprintf("Concurrent broadcast load (n=%d, d=%g, %d flows, jitter %d)", n, d, flows, jitter),
		XLabel: "offered load (arrivals/slot)", YLabel: "delivery ratio / throughput",
		Series: series,
	}
}

// discoveryOracle is Discovery with one replication loop per series.
func discoveryOracle(rates []float64, n int, d float64, flows, jitter int, seed uint64, rule stats.StopRule) *Figure {
	type metric struct {
		name    string
		measure func(dr *workload.DiscoveryResult) (float64, bool)
	}
	metrics := []metric{
		{"success", func(dr *workload.DiscoveryResult) (float64, bool) {
			return dr.SuccessRatio, dr.Requests > 0
		}},
		// Latency is conditional on success: a replicate where every flood
		// failed contributes no sample rather than a spurious zero.
		{"latency", func(dr *workload.DiscoveryResult) (float64, bool) {
			return dr.MeanLatency, dr.Found > 0
		}},
	}
	var series []Series
	for _, bk := range trafficBackbones() {
		bk := bk
		for _, m := range metrics {
			m := m
			s := Series{Name: bk.name + "-" + m.name, Points: make([]Point, len(rates))}
			ForEachPoint(len(rates), func(i int) {
				rate := rates[i]
				sc := DefaultScenario(n, d, seed)
				sc.Rule = rule
				mw := broadcast.NewMultiMACWorkspace() // replicates run sequentially
				sum, err := stats.Replicate(sc.Rule, func(rep int) (float64, bool) {
					nw, cl, _, ok := clusteredSample(sc, fmt.Sprintf("discovery-%g", rate), rep)
					if !ok {
						return 0, false
					}
					spec := workload.Spec{
						Process: workload.Poisson, Rate: rate, Flows: flows,
						FanOut: 1, Discovery: true, Seed: sc.Seed ^ uint64(rep),
					}
					fl, err := spec.Generate(nw.N())
					if err != nil {
						return 0, false
					}
					dr := workload.RunDiscovery(nw.G, fl, bk.proto(nw, cl),
						broadcast.MACOptions{Jitter: jitter}, mw.Run)
					return m.measure(dr)
				})
				if err != nil {
					s.Points[i] = Point{X: rate}
					return
				}
				s.Points[i] = Point{X: rate, Mean: sum.Mean(), CI: sum.CI(0.99), Reps: sum.N()}
			})
			series = append(series, s)
		}
	}
	return &Figure{
		ID:     "discovery",
		Title:  fmt.Sprintf("Route discovery under load (n=%d, d=%g, %d floods, jitter %d)", n, d, flows, jitter),
		XLabel: "offered load (arrivals/slot)", YLabel: "success ratio / latency (slots)",
		Series: series,
	}
}

// stormOracle is Storm with one replication loop per series.
func stormOracle(degrees []float64, n int, seed uint64, rule stats.StopRule) *Figure {
	mk := func(name string, runOne func(nw *topology.Network, cl *cluster.Clustering, src int) *broadcast.Result) Series {
		s := Series{Name: name, Points: make([]Point, len(degrees))}
		ForEachPoint(len(degrees), func(i int) {
			deg := degrees[i]
			sc := DefaultScenario(n, deg, seed)
			sc.Rule = rule
			sum, err := stats.Replicate(sc.Rule, func(rep int) (float64, bool) {
				nw, cl, r, ok := clusteredSample(sc, fmt.Sprintf("storm-%g", deg), rep)
				if !ok {
					return 0, false
				}
				return runOne(nw, cl, r.source(nw.N())).Redundancy(), true
			})
			if err != nil {
				s.Points[i] = Point{X: deg}
				return
			}
			s.Points[i] = Point{X: deg, Mean: sum.Mean(), CI: sum.CI(0.99), Reps: sum.N()}
		})
		return s
	}
	return &Figure{
		ID:     "storm",
		Title:  fmt.Sprintf("Redundant receptions per node vs density (n=%d)", n),
		XLabel: "avg degree", YLabel: "redundant copies per node",
		Series: []Series{
			mk("flooding", func(nw *topology.Network, cl *cluster.Clustering, src int) *broadcast.Result {
				return broadcast.Run(nw.G, src, broadcast.Flooding{})
			}),
			mk("dynamic-2.5hop", func(nw *topology.Network, cl *cluster.Clustering, src int) *broadcast.Result {
				return dynamicb.New(nw.G, cl, coverage.Hop25).Broadcast(src)
			}),
			mk("sba-w4", func(nw *topology.Network, cl *cluster.Clustering, src int) *broadcast.Result {
				nb := broadcast.NewNeighborhood(nw.G)
				return broadcast.RunTimed(nw.G, src, broadcast.NewSBA(nb, 4, 1))
			}),
			mk("counter-3", func(nw *topology.Network, cl *cluster.Clustering, src int) *broadcast.Result {
				return broadcast.RunTimed(nw.G, src, broadcast.CounterBased{Threshold: 3, MaxDelay: 4, Seed: 1})
			}),
			mk("distance-0.4r", func(nw *topology.Network, cl *cluster.Clustering, src int) *broadcast.Result {
				return broadcast.RunTimed(nw.G, src, broadcast.DistanceBased{
					Positions: nw.Positions, MinDistance: nw.Radius * 0.4, MaxDelay: 4, Seed: 1,
				})
			}),
		},
	}
}

// collisionOracle is Collision with one replication loop per series.
func collisionOracle(degrees []float64, n, jitterWindow int, seed uint64, rule stats.StopRule) *Figure {
	mk := func(name string, run func(nw *topology.Network, cl *cluster.Clustering, src int, opt broadcast.MACOptions) *broadcast.CollisionResult) Series {
		s := Series{Name: name, Points: make([]Point, len(degrees))}
		ForEachPoint(len(degrees), func(i int) {
			deg := degrees[i]
			sc := DefaultScenario(n, deg, seed)
			sc.Rule = rule
			sum, err := stats.Replicate(sc.Rule, func(rep int) (float64, bool) {
				nw, cl, r, ok := clusteredSample(sc, fmt.Sprintf("collision-%g", deg), rep)
				if !ok {
					return 0, false
				}
				opt := broadcast.MACOptions{Jitter: jitterWindow, Seed: sc.Seed ^ uint64(rep)}
				res := run(nw, cl, r.source(nw.N()), opt)
				return res.DeliveryRatio(nw.N()), true
			})
			if err != nil {
				s.Points[i] = Point{X: deg}
				return
			}
			s.Points[i] = Point{X: deg, Mean: sum.Mean(), CI: sum.CI(0.99), Reps: sum.N()}
		})
		return s
	}
	return &Figure{
		ID:     "collision",
		Title:  fmt.Sprintf("Delivery under MAC collisions (n=%d, jitter window %d)", n, jitterWindow),
		XLabel: "avg degree", YLabel: "delivery ratio",
		Series: []Series{
			mk("flooding", func(nw *topology.Network, cl *cluster.Clustering, src int, opt broadcast.MACOptions) *broadcast.CollisionResult {
				return broadcast.RunMAC(nw.G, src, broadcast.Flooding{}, opt)
			}),
			mk("static-2.5hop", func(nw *topology.Network, cl *cluster.Clustering, src int, opt broadcast.MACOptions) *broadcast.CollisionResult {
				s := backbone.BuildStatic(nw.G, cl, coverage.Hop25)
				return broadcast.RunMAC(nw.G, src, broadcast.StaticCDS{Set: s.Nodes}, opt)
			}),
			mk("dynamic-2.5hop", func(nw *topology.Network, cl *cluster.Clustering, src int, opt broadcast.MACOptions) *broadcast.CollisionResult {
				return broadcast.RunMAC(nw.G, src, dynamicb.New(nw.G, cl, coverage.Hop25), opt)
			}),
		},
	}
}

// TestSharedSeriesMatchOracles: Traffic, Discovery, Storm and Collision
// on the shared-replicate runner equal their per-series oracles bit for
// bit (mean, CI and replicate count of every point) at any worker count.
// Storm's d=4 point rejects most draws, so its series take many skips;
// discovery's latency series skips the replicates where no flood found
// its destination.
func TestSharedSeriesMatchOracles(t *testing.T) {
	rule := stats.StopRule{Confidence: 0.95, RelHalfWidth: 0.15, MinReplicates: 10, MaxReplicates: 40}
	cases := []struct {
		name      string
		got, want func() *Figure
	}{
		{"traffic",
			func() *Figure { return Traffic([]float64{0.1, 0.8}, 30, 8, 8, 2, 19, rule) },
			func() *Figure { return trafficOracle([]float64{0.1, 0.8}, 30, 8, 8, 2, 19, rule) }},
		{"discovery",
			func() *Figure { return Discovery([]float64{0.1, 0.8}, 30, 8, 6, 2, 19, rule) },
			func() *Figure { return discoveryOracle([]float64{0.1, 0.8}, 30, 8, 6, 2, 19, rule) }},
		{"storm",
			func() *Figure { return Storm([]float64{4, 10, 18}, 40, 19, rule) },
			func() *Figure { return stormOracle([]float64{4, 10, 18}, 40, 19, rule) }},
		{"collision",
			func() *Figure { return Collision([]float64{6, 14}, 30, 4, 19, rule) },
			func() *Figure { return collisionOracle([]float64{6, 14}, 30, 4, 19, rule) }},
	}
	defer SetParallelism(0)
	for _, c := range cases {
		SetParallelism(1)
		want := c.want()
		for _, workers := range []int{1, 4, 8} {
			SetParallelism(workers)
			got := c.got()
			if got.ID != want.ID || got.Title != want.Title || got.XLabel != want.XLabel ||
				got.YLabel != want.YLabel || len(got.Series) != len(want.Series) {
				t.Fatalf("%s workers=%d: figure header or series count differs from the oracle", c.name, workers)
			}
			for si, ws := range want.Series {
				gs := got.Series[si]
				if gs.Name != ws.Name || len(gs.Points) != len(ws.Points) {
					t.Fatalf("%s workers=%d: series %d is %q/%d points, oracle %q/%d",
						c.name, workers, si, gs.Name, len(gs.Points), ws.Name, len(ws.Points))
				}
				for pi, wp := range ws.Points {
					gp := gs.Points[pi]
					if math.Float64bits(gp.X) != math.Float64bits(wp.X) ||
						math.Float64bits(gp.Mean) != math.Float64bits(wp.Mean) ||
						math.Float64bits(gp.CI) != math.Float64bits(wp.CI) || gp.Reps != wp.Reps {
						t.Errorf("%s workers=%d %s[%d]: got %+v, oracle %+v", c.name, workers, ws.Name, pi, gp, wp)
					}
				}
			}
		}
	}
}
