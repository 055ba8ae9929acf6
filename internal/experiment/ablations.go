package experiment

import (
	"fmt"

	"clustercast/internal/backbone"
	"clustercast/internal/broadcast"
	"clustercast/internal/cluster"
	"clustercast/internal/coverage"
	"clustercast/internal/dynamicb"
	"clustercast/internal/mcds"
	"clustercast/internal/mocds"
	"clustercast/internal/rng"
	"clustercast/internal/sim"
	"clustercast/internal/stats"
	"clustercast/internal/topology"
)

// ApproxRatio reproduces the §4 constant-approximation-ratio claim
// empirically: on small networks (where the exact MCDS is computable) it
// measures |CDS| / |MCDS| for the static backbone, the dynamic backbone's
// forwarder set, and the MO_CDS, sweeping the network size (ABL-RATIO).
func ApproxRatio(ns []int, d float64, seed uint64, rule stats.StopRule) *Figure {
	builds := []func(nw *topology.Network, cl *cluster.Clustering, src int) int{
		func(nw *topology.Network, cl *cluster.Clustering, _ int) int {
			return backbone.BuildStatic(nw.G, cl, coverage.Hop25).Size()
		},
		func(nw *topology.Network, cl *cluster.Clustering, src int) int {
			return dynamicb.New(nw.G, cl, coverage.Hop25).Broadcast(src).ForwardCount()
		},
		func(nw *topology.Network, cl *cluster.Clustering, _ int) int {
			return mocds.Build(nw.G, cl).Size()
		},
		func(nw *topology.Network, _ *cluster.Clustering, _ int) int {
			return len(mcds.Greedy(nw.G))
		},
	}
	return &Figure{
		ID:     "ratio",
		Title:  fmt.Sprintf("Empirical approximation ratio to the MCDS (d=%g)", d),
		XLabel: "n", YLabel: "|CDS| / |MCDS|",
		Series: sweepSeries([]string{"static-2.5hop", "dynamic-2.5hop", "mo-cds", "greedy-gk"}, sizes(ns), rule,
			atSize("ratio", ns, d, seed, func(sh *shared) {
				opt := mcds.Exact(sh.nw.G) // one exact MCDS per replicate, shared by every series
				if len(opt) == 0 {
					return
				}
				src := sh.r.Intn(sh.nw.N())
				for j, build := range builds {
					if sh.live[j] {
						sh.xs[j], sh.oks[j] = float64(build(sh.nw, sh.cl, src))/float64(len(opt)), true
					}
				}
			})),
	}
}

// MessageComplexity reproduces the §4 message-optimality claim: total
// construction messages of the distributed protocol versus network size
// (ABL-MSG). Linearity shows as a flat messages-per-node curve.
func MessageComplexity(ns []int, d float64, seed uint64, rule stats.StopRule) *Figure {
	names := []string{"total-messages", "messages-per-node", "rounds", "mean-active-per-round", "idle-fraction"}
	return &Figure{
		ID:     "msg",
		Title:  fmt.Sprintf("Distributed construction cost (d=%g)", d),
		XLabel: "n", YLabel: "messages",
		Series: sweepSeries(names, sizes(ns), rule, atSize("msg", ns, d, seed, func(sh *shared) {
			c := sim.Run(sh.nw.G, coverage.Hop25).Counters
			n := float64(sh.nw.N())
			sh.xs[0], sh.oks[0] = float64(c.Total()), true
			sh.xs[1], sh.oks[1] = float64(c.Total())/n, true
			sh.xs[2], sh.oks[2] = float64(c.Rounds), true
			sh.xs[3], sh.oks[3] = c.MeanActive(), true
			// The idle fraction is the share of per-round node scans a
			// round-synchronous simulator wastes on silent nodes (1 −
			// active/n, averaged over rounds): the measured quantity
			// behind the event-driven core's savings.
			if len(c.ActivePerRound) > 0 {
				idle := 0.0
				for _, a := range c.ActivePerRound {
					idle += 1 - float64(a)/n
				}
				sh.xs[4], sh.oks[4] = idle/float64(len(c.ActivePerRound)), true
			}
		})),
	}
}

// Baselines compares the dynamic backbone's forward-node count against the
// related-work protocols of §2: blind flooding, MPR, dominant pruning and
// partial dominant pruning (ABL-BASELINES).
func Baselines(ns []int, d float64, seed uint64, rule stats.StopRule) *Figure {
	protos := []func(nw *topology.Network, cl *cluster.Clustering) broadcast.Protocol{
		func(*topology.Network, *cluster.Clustering) broadcast.Protocol { return broadcast.Flooding{} },
		func(nw *topology.Network, _ *cluster.Clustering) broadcast.Protocol {
			return broadcast.NewMPR(broadcast.NewNeighborhood(nw.G))
		},
		func(nw *topology.Network, _ *cluster.Clustering) broadcast.Protocol {
			return broadcast.NewDP(broadcast.NewNeighborhood(nw.G))
		},
		func(nw *topology.Network, _ *cluster.Clustering) broadcast.Protocol {
			return broadcast.NewPDP(broadcast.NewNeighborhood(nw.G))
		},
		func(nw *topology.Network, cl *cluster.Clustering) broadcast.Protocol {
			return dynamicb.New(nw.G, cl, coverage.Hop25)
		},
	}
	return &Figure{
		ID:     "baselines",
		Title:  fmt.Sprintf("Forward nodes across broadcast protocols (d=%g)", d),
		XLabel: "n", YLabel: "forward nodes",
		Series: sweepSeries([]string{"flooding", "mpr", "dp", "pdp", "dynamic-2.5hop"}, sizes(ns), rule,
			atSize("baselines", ns, d, seed, func(sh *shared) {
				src := sh.r.Intn(sh.nw.N())
				for j, proto := range protos {
					if sh.live[j] {
						sh.xs[j], sh.oks[j] = float64(broadcast.Run(sh.nw.G, src, proto(sh.nw, sh.cl)).ForwardCount()), true
					}
				}
			})),
	}
}

// TieBreak measures the effect of the paper's indirect-coverage
// tie-breaking rule on the static backbone size (ABL-TIE).
func TieBreak(ns []int, d float64, seed uint64, rule stats.StopRule) *Figure {
	opts := []backbone.Options{{}, {NoIndirectTieBreak: true}}
	return &Figure{
		ID:     "tiebreak",
		Title:  fmt.Sprintf("Static backbone size with/without the indirect tie-break (d=%g)", d),
		XLabel: "n", YLabel: "CDS size",
		Series: sweepSeries([]string{"with-tiebreak", "without-tiebreak"}, sizes(ns), rule,
			atSize("tiebreak", ns, d, seed, func(sh *shared) {
				for j, o := range opts {
					if sh.live[j] {
						b := coverage.NewBuilder(sh.nw.G, sh.cl, coverage.Hop25)
						sh.xs[j], sh.oks[j] = float64(backbone.BuildStaticOpt(b, sh.cl, o).Size()), true
					}
				}
			})),
	}
}

// Mobility quantifies why the paper argues for on-demand (dynamic)
// backbones: under random-waypoint motion it measures, per time step, how
// many nodes change cluster affiliation and how many static-backbone
// memberships change — the maintenance churn a proactive SI-CDS would have
// to repair (ABL-MOBILITY). The sweep is over the maximum node speed.
func Mobility(speeds []float64, n int, d float64, steps int, seed uint64, rule stats.StopRule) *Figure {
	churn := func(measure func(prev, cur map[int]bool, prevHead, curHead []int, n int) float64) func(speed float64) Estimator {
		return func(speed float64) Estimator {
			return func(sc Scenario, rep int) (float64, bool) {
				nw, _, ok := sc.Sample(fmt.Sprintf("mobility-%g", speed), rep)
				if !ok {
					return 0, false
				}
				mob := topology.NewRandomWaypoint(nw.Positions, sc.Bounds, speed/2, speed, 0,
					rng.NewLabeled(sc.Seed^uint64(rep), "waypoint"))
				prevNet := nw
				prevCl := cluster.LowestID(prevNet.G)
				prevBB := backbone.BuildStatic(prevNet.G, prevCl, coverage.Hop25)
				// Incremental edge maintenance: each step re-tests only the
				// grid cells the moved nodes touched instead of rebuilding
				// the whole unit disk graph.
				dyn := topology.NewDynamic(nw)
				total := 0.0
				for step := 0; step < steps; step++ {
					pos := mob.Step(1)
					cur := dyn.Step(pos)
					curCl := cluster.LowestID(cur.G)
					curBB := backbone.BuildStatic(cur.G, curCl, coverage.Hop25)
					total += measure(prevBB.Nodes, curBB.Nodes, prevCl.Head, curCl.Head, sc.N)
					prevCl, prevBB = curCl, curBB
				}
				return total / float64(steps), true
			}
		}
	}
	headChanges := func(_, _ map[int]bool, prevHead, curHead []int, n int) float64 {
		c := 0
		for v := 0; v < n; v++ {
			if prevHead[v] != curHead[v] {
				c++
			}
		}
		return float64(c)
	}
	backboneChanges := func(prev, cur map[int]bool, _, _ []int, n int) float64 {
		c := 0
		for v := 0; v < n; v++ {
			if prev[v] != cur[v] {
				c++
			}
		}
		return float64(c)
	}
	mkSeries := func(name string, est func(speed float64) Estimator) Series {
		s := Series{Name: name, Points: make([]Point, len(speeds))}
		ForEachPoint(len(speeds), func(i int) {
			speed := speeds[i]
			sc := DefaultScenario(n, d, seed)
			sc.Rule = rule
			sum, err := stats.Replicate(sc.Rule, func(rep int) (float64, bool) {
				return est(speed)(sc, rep)
			})
			if err != nil {
				s.Points[i] = Point{X: speed}
				return
			}
			s.Points[i] = Point{X: speed, Mean: sum.Mean(), CI: sum.CI(0.99), Reps: sum.N()}
		})
		return s
	}
	return &Figure{
		ID:     "mobility",
		Title:  fmt.Sprintf("Backbone maintenance churn per step (n=%d, d=%g)", n, d),
		XLabel: "max speed", YLabel: "changes per step",
		Series: []Series{
			mkSeries("cluster-affiliation-changes", churn(headChanges)),
			mkSeries("static-backbone-membership-changes", churn(backboneChanges)),
		},
	}
}

// Delivery confirms the correctness side of every protocol: delivery ratio
// over connected networks must be 1.0 for all CDS-based schemes.
func Delivery(ns []int, d float64, seed uint64, rule stats.StopRule) *Figure {
	ratio := func(label string, runOne func(nw *topology.Network, cl *cluster.Clustering, src int) *broadcast.Result) Estimator {
		return func(sc Scenario, rep int) (float64, bool) {
			nw, cl, r, ok := clusteredSample(sc, "delivery-"+label, rep)
			if !ok {
				return 0, false
			}
			res := runOne(nw, cl, r.source(nw.N()))
			return res.DeliveryRatio(nw.N()), true
		}
	}
	return &Figure{
		ID:     "delivery",
		Title:  fmt.Sprintf("Delivery ratio (d=%g)", d),
		XLabel: "n", YLabel: "delivery ratio",
		Series: []Series{
			sweep("dynamic-2.5hop", ns, d, seed, rule, ratio("dyn", func(nw *topology.Network, cl *cluster.Clustering, src int) *broadcast.Result {
				return dynamicb.New(nw.G, cl, coverage.Hop25).Broadcast(src)
			})),
			sweep("static-2.5hop", ns, d, seed, rule, ratio("static", func(nw *topology.Network, cl *cluster.Clustering, src int) *broadcast.Result {
				s := backbone.BuildStatic(nw.G, cl, coverage.Hop25)
				return broadcast.Run(nw.G, src, broadcast.StaticCDS{Set: s.Nodes})
			})),
			sweep("mo-cds", ns, d, seed, rule, ratio("mocds", func(nw *topology.Network, cl *cluster.Clustering, src int) *broadcast.Result {
				c := mocds.Build(nw.G, cl)
				return broadcast.Run(nw.G, src, broadcast.StaticCDS{Set: c.Nodes})
			})),
		},
	}
}
