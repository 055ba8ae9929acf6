package experiment

import (
	"fmt"

	"clustercast/internal/backbone"
	"clustercast/internal/broadcast"
	"clustercast/internal/cluster"
	"clustercast/internal/coverage"
	"clustercast/internal/dynamicb"
	"clustercast/internal/graph"
	"clustercast/internal/hier"
	"clustercast/internal/routing"
	"clustercast/internal/sim"
	"clustercast/internal/stats"
	"clustercast/internal/topology"
)

// Pruning reproduces the §3 trade-off between the two redundancy-pruning
// techniques the paper discusses: back-off self-pruning ("more delay
// time") versus piggybacked coverage pruning ("increase the message
// length", the dynamic backbone's choice). The sweep is over the back-off
// window; the piggyback series is flat since it takes no extra delay.
// Two series pairs are reported: forward nodes and latency. ABL-PRUNING.
func Pruning(windows []int, n int, d float64, seed uint64, rule stats.StopRule) *Figure {
	type metric struct {
		name    string
		measure func(res *broadcast.Result) float64
	}
	metrics := []metric{
		{"sba-forwards", func(r *broadcast.Result) float64 { return float64(r.ForwardCount()) }},
		{"sba-latency", func(r *broadcast.Result) float64 { return float64(r.Latency) }},
	}
	var series []Series
	for _, m := range metrics {
		m := m
		s := Series{Name: m.name, Points: make([]Point, len(windows))}
		ForEachPoint(len(windows), func(i int) {
			window := windows[i]
			sc := DefaultScenario(n, d, seed)
			sc.Rule = rule
			sum, err := stats.Replicate(sc.Rule, func(rep int) (float64, bool) {
				nw, r, ok := sc.Sample(fmt.Sprintf("pruning-%d", window), rep)
				if !ok {
					return 0, false
				}
				nb := broadcast.NewNeighborhood(nw.G)
				res := broadcast.RunTimed(nw.G, r.Intn(nw.N()),
					broadcast.NewSBA(nb, window, sc.Seed^uint64(rep)))
				if len(res.Received) != nw.N() {
					return 0, false
				}
				return m.measure(res), true
			})
			if err != nil {
				s.Points[i] = Point{X: float64(window)}
				return
			}
			s.Points[i] = Point{X: float64(window), Mean: sum.Mean(), CI: sum.CI(0.99), Reps: sum.N()}
		})
		series = append(series, s)
	}

	// Piggyback pruning (the dynamic backbone) as flat reference lines.
	flat := func(name string, measure func(res *broadcast.Result) float64) Series {
		sc := DefaultScenario(n, d, seed)
		sc.Rule = rule
		sum, err := stats.Replicate(sc.Rule, func(rep int) (float64, bool) {
			nw, cl, r, ok := clusteredSample(sc, "pruning-dyn", rep)
			if !ok {
				return 0, false
			}
			res := dynamicb.New(nw.G, cl, coverage.Hop25).Broadcast(r.source(nw.N()))
			return measure(res), true
		})
		s := Series{Name: name, Points: make([]Point, len(windows))}
		for i := range s.Points {
			p := Point{X: float64(windows[i])}
			if err == nil {
				p.Mean = sum.Mean()
				p.CI = sum.CI(0.99)
				p.Reps = sum.N()
			}
			s.Points[i] = p
		}
		return s
	}
	series = append(series,
		flat("piggyback-forwards", func(r *broadcast.Result) float64 { return float64(r.ForwardCount()) }),
		flat("piggyback-latency", func(r *broadcast.Result) float64 { return float64(r.Latency) }),
	)

	return &Figure{
		ID:     "pruning",
		Title:  fmt.Sprintf("Back-off vs piggyback pruning (n=%d, d=%g)", n, d),
		XLabel: "back-off window", YLabel: "forward nodes / latency",
		Series: series,
	}
}

// Routing measures route discovery over the broadcast service (the
// application the paper's introduction motivates): RREQ transmissions and
// route stretch when the request is flooded blindly versus over the
// dynamic backbone. ABL-ROUTING.
func Routing(ns []int, d float64, seed uint64, rule stats.StopRule) *Figure {
	// Series p and p+2 are protocol p's request cost and route stretch.
	protos := []func(sh *shared) broadcast.Protocol{
		func(*shared) broadcast.Protocol { return broadcast.Flooding{} },
		func(sh *shared) broadcast.Protocol { return dynamicb.New(sh.nw.G, sh.cl, coverage.Hop25) },
	}
	return &Figure{
		ID:     "routing",
		Title:  fmt.Sprintf("Route discovery over the broadcast service (d=%g)", d),
		XLabel: "n", YLabel: "RREQ transmissions / stretch",
		Series: sweepSeries([]string{"flooding-cost", "backbone-cost", "flooding-stretch", "backbone-stretch"}, sizes(ns), rule,
			atSize("routing", ns, d, seed, func(sh *shared) {
				src := sh.r.Intn(sh.nw.N())
				dst := sh.r.Intn(sh.nw.N())
				if src == dst {
					return
				}
				for p, proto := range protos {
					if !sh.live[p] && !sh.live[p+2] {
						continue
					}
					route, err := routing.Discover(sh.nw.G, src, dst, proto(sh))
					if err != nil {
						continue
					}
					sh.xs[p], sh.oks[p] = float64(route.RequestCost), true
					sh.xs[p+2], sh.oks[p+2] = route.Stretch(sh.nw.G), true
				}
			})),
	}
}

// Storm reproduces the broadcast storm analysis (Ni et al., the paper's
// [9]): redundant receptions per node versus density, for flooding and the
// backbones. ABL-STORM. The sweep is over the average degree at n=80.
func Storm(degrees []float64, n int, seed uint64, rule stats.StopRule) *Figure {
	runs := []func(nw *topology.Network, cl *cluster.Clustering, src int) *broadcast.Result{
		func(nw *topology.Network, cl *cluster.Clustering, src int) *broadcast.Result {
			return broadcast.Run(nw.G, src, broadcast.Flooding{})
		},
		func(nw *topology.Network, cl *cluster.Clustering, src int) *broadcast.Result {
			return dynamicb.New(nw.G, cl, coverage.Hop25).Broadcast(src)
		},
		func(nw *topology.Network, cl *cluster.Clustering, src int) *broadcast.Result {
			nb := broadcast.NewNeighborhood(nw.G)
			return broadcast.RunTimed(nw.G, src, broadcast.NewSBA(nb, 4, 1))
		},
		func(nw *topology.Network, cl *cluster.Clustering, src int) *broadcast.Result {
			return broadcast.RunTimed(nw.G, src, broadcast.CounterBased{Threshold: 3, MaxDelay: 4, Seed: 1})
		},
		func(nw *topology.Network, cl *cluster.Clustering, src int) *broadcast.Result {
			return broadcast.RunTimed(nw.G, src, broadcast.DistanceBased{
				Positions: nw.Positions, MinDistance: nw.Radius * 0.4, MaxDelay: 4, Seed: 1,
			})
		},
	}
	return &Figure{
		ID:     "storm",
		Title:  fmt.Sprintf("Redundant receptions per node vs density (n=%d)", n),
		XLabel: "avg degree", YLabel: "redundant copies per node",
		Series: sweepSeries([]string{"flooding", "dynamic-2.5hop", "sba-w4", "counter-3", "distance-0.4r"}, degrees, rule,
			atDegree("storm", degrees, n, seed, func(sh *shared) {
				src := sh.r.Intn(sh.nw.N())
				for j, run := range runs {
					if sh.live[j] {
						sh.xs[j], sh.oks[j] = run(sh.nw, sh.cl, src).Redundancy(), true
					}
				}
			})),
	}
}

// Hierarchy measures the repository's future-work extension: how many
// clusterheads survive at each level of the multi-level hierarchy as the
// network grows — geometric shrinkage is what makes hierarchical
// addressing scale. ABL-HIER.
func Hierarchy(ns []int, d float64, levels int, seed uint64, rule stats.StopRule) *Figure {
	var names []string
	for lvl := 0; lvl <= levels; lvl++ {
		names = append(names, fmt.Sprintf("level-%d-heads", lvl))
	}
	return &Figure{
		ID:     "hier",
		Title:  fmt.Sprintf("Clusterheads per hierarchy level (d=%g)", d),
		XLabel: "n", YLabel: "heads",
		Series: sweepSeries(names, sizes(ns), rule, atSize("hier", ns, d, seed, func(sh *shared) {
			h, err := hier.Build(sh.nw.G, levels+1)
			if err != nil {
				return
			}
			for lvl := range names {
				sh.xs[lvl], sh.oks[lvl] = 1, true // fully collapsed: one head remains
				if lvl < h.Depth() {
					sh.xs[lvl] = float64(len(h.HeadsAt(lvl)))
				}
			}
		})),
	}
}

// Collision drops the paper's ideal-MAC assumption: broadcasts run under
// the slotted collision model (simultaneous transmissions destroy each
// other at common receivers; forwarders jitter within a contention
// window). Delivery ratio versus density shows the storm collapse of
// flooding and the backbones' resilience. ABL-COLLISION.
func Collision(degrees []float64, n, jitterWindow int, seed uint64, rule stats.StopRule) *Figure {
	runs := []func(nw *topology.Network, cl *cluster.Clustering, src int, opt broadcast.MACOptions) *broadcast.CollisionResult{
		func(nw *topology.Network, cl *cluster.Clustering, src int, opt broadcast.MACOptions) *broadcast.CollisionResult {
			return broadcast.RunMAC(nw.G, src, broadcast.Flooding{}, opt)
		},
		func(nw *topology.Network, cl *cluster.Clustering, src int, opt broadcast.MACOptions) *broadcast.CollisionResult {
			s := backbone.BuildStatic(nw.G, cl, coverage.Hop25)
			return broadcast.RunMAC(nw.G, src, broadcast.StaticCDS{Set: s.Nodes}, opt)
		},
		func(nw *topology.Network, cl *cluster.Clustering, src int, opt broadcast.MACOptions) *broadcast.CollisionResult {
			return broadcast.RunMAC(nw.G, src, dynamicb.New(nw.G, cl, coverage.Hop25), opt)
		},
	}
	return &Figure{
		ID:     "collision",
		Title:  fmt.Sprintf("Delivery under MAC collisions (n=%d, jitter window %d)", n, jitterWindow),
		XLabel: "avg degree", YLabel: "delivery ratio",
		Series: sweepSeries([]string{"flooding", "static-2.5hop", "dynamic-2.5hop"}, degrees, rule,
			atDegree("collision", degrees, n, seed, func(sh *shared) {
				src := sh.r.Intn(sh.nw.N())
				opt := broadcast.MACOptions{Jitter: jitterWindow, Seed: seed ^ uint64(sh.rep)}
				for j, run := range runs {
					if sh.live[j] {
						sh.xs[j], sh.oks[j] = run(sh.nw, sh.cl, src, opt).DeliveryRatio(sh.nw.N()), true
					}
				}
			})),
	}
}

// Election compares the clusterhead election rule feeding the backbone:
// the paper's lowest-ID algorithm versus highest-connectivity (degree)
// clustering. Fewer, larger clusters shrink the backbone but concentrate
// load and churn under mobility. ABL-ELECTION.
func Election(ns []int, d float64, seed uint64, rule stats.StopRule) *Figure {
	// Series e and e+2 are election e's head count and backbone size.
	elects := []func(*graph.Graph) *cluster.Clustering{cluster.LowestID, cluster.HighestDegree}
	return &Figure{
		ID:     "election",
		Title:  fmt.Sprintf("Lowest-ID vs highest-degree clusterhead election (d=%g)", d),
		XLabel: "n", YLabel: "count",
		Series: sweepSeries([]string{"lowestid-heads", "highestdeg-heads", "lowestid-backbone", "highestdeg-backbone"}, sizes(ns), rule,
			atSize("election", ns, d, seed, func(sh *shared) {
				for e, elect := range elects {
					if !sh.live[e] && !sh.live[e+2] {
						continue
					}
					cl := elect(sh.nw.G)
					sh.xs[e], sh.oks[e] = float64(cl.NumClusters()), true
					if sh.live[e+2] {
						b := coverage.NewBuilder(sh.nw.G, cl, coverage.Hop25)
						sh.xs[e+2], sh.oks[e+2] = float64(backbone.BuildStaticFrom(b, cl).Size()), true
					}
				}
			})),
	}
}

// CoverageCost quantifies the paper's stated reason for preferring the
// 2.5-hop coverage set: "the cost of maintaining the 2.5-hop coverage set
// is lower than that of the 3-hop coverage set" (§1, §5). The proxy
// measured here is exactly the state the CH_HOP2 exchange must carry and
// keep fresh: total 2-hop clusterhead entries across all non-clusterheads,
// plus the average coverage-set size per clusterhead. ABL-COVERAGE.
func CoverageCost(ns []int, d float64, seed uint64, rule stats.StopRule) *Figure {
	// Series m and m+2 are mode m's CH_HOP2 entries and mean |C(u)|.
	modes := []coverage.Mode{coverage.Hop25, coverage.Hop3}
	return &Figure{
		ID:     "covcost",
		Title:  fmt.Sprintf("Coverage-set maintenance cost, 2.5-hop vs 3-hop (d=%g)", d),
		XLabel: "n", YLabel: "CH_HOP2 entries / avg |C(u)|",
		Series: sweepSeries([]string{"ch2-entries-2.5hop", "ch2-entries-3hop", "coverage-size-2.5hop", "coverage-size-3hop"}, sizes(ns), rule,
			atSize("covcost", ns, d, seed, func(sh *shared) {
				nw, cl := sh.nw, sh.cl
				for m, mode := range modes {
					if !sh.live[m] && !sh.live[m+2] {
						continue
					}
					b := coverage.NewBuilder(nw.G, cl, mode)
					entries := 0
					for v := 0; v < nw.N(); v++ {
						if !cl.IsHead(v) {
							entries += len(b.CH2(v))
						}
					}
					size := 0
					for _, h := range cl.Heads {
						size += b.Of(h).Size()
					}
					sh.xs[m], sh.oks[m] = float64(entries), true
					sh.xs[m+2], sh.oks[m+2] = float64(size)/float64(len(cl.Heads)), true
				}
			})),
	}
}

// Amortized settles the conclusion's argument ("maintaining a static
// backbone at all times for broadcasting is costly and unnecessary") with
// total message counts: construction traffic (from the wire-protocol
// simulator) plus per-broadcast forwarding, as a function of how many
// broadcasts k the structure serves before the topology changes. The
// static backbone pays GATEWAY designation traffic up front for a larger
// forward set; the dynamic backbone skips GATEWAY messages and forwards
// less per broadcast — so it wins at every k, and the gap widens.
// Flooding pays nothing up front and n per broadcast. ABL-AMORT.
func Amortized(ks []int, n int, d float64, seed uint64, rule stats.StopRule) *Figure {
	type costs struct {
		staticSetup, dynSetup   float64
		staticFwd, dynFwd, nAll float64
	}
	measure := func(sc Scenario, rep int) (costs, bool) {
		nw, cl, r, ok := clusteredSample(sc, "amort", rep)
		if !ok {
			return costs{}, false
		}
		out := sim.Run(nw.G, coverage.Hop25)
		gateway := out.Counters.PerType[sim.Gateway]
		src := r.source(nw.N())
		st := backbone.BuildStatic(nw.G, cl, coverage.Hop25)
		sres := broadcast.Run(nw.G, src, broadcast.StaticCDS{Set: st.Nodes})
		dres := dynamicb.New(nw.G, cl, coverage.Hop25).Broadcast(src)
		return costs{
			staticSetup: float64(out.Counters.Total()),
			dynSetup:    float64(out.Counters.Total() - gateway),
			staticFwd:   float64(sres.ForwardCount()),
			dynFwd:      float64(dres.ForwardCount()),
			nAll:        float64(nw.N()),
		}, true
	}
	mk := func(name string, total func(c costs, k int) float64) Series {
		s := Series{Name: name, Points: make([]Point, len(ks))}
		ForEachPoint(len(ks), func(i int) {
			k := ks[i]
			sc := DefaultScenario(n, d, seed)
			sc.Rule = rule
			sum, err := stats.Replicate(sc.Rule, func(rep int) (float64, bool) {
				c, ok := measure(sc, rep)
				if !ok {
					return 0, false
				}
				return total(c, k), true
			})
			if err != nil {
				s.Points[i] = Point{X: float64(k)}
				return
			}
			s.Points[i] = Point{X: float64(k), Mean: sum.Mean(), CI: sum.CI(0.99), Reps: sum.N()}
		})
		return s
	}
	return &Figure{
		ID:     "amort",
		Title:  fmt.Sprintf("Total messages for k broadcasts (n=%d, d=%g)", n, d),
		XLabel: "broadcasts k", YLabel: "messages (setup + forwarding)",
		Series: []Series{
			mk("flooding", func(c costs, k int) float64 { return float64(k) * c.nAll }),
			mk("static-backbone", func(c costs, k int) float64 { return c.staticSetup + float64(k)*c.staticFwd }),
			mk("dynamic-backbone", func(c costs, k int) float64 { return c.dynSetup + float64(k)*c.dynFwd }),
		},
	}
}
