package experiment

import (
	"fmt"

	"clustercast/internal/backbone"
	"clustercast/internal/broadcast"
	"clustercast/internal/cluster"
	"clustercast/internal/coverage"
	"clustercast/internal/dynamicb"
	"clustercast/internal/mocds"
	"clustercast/internal/stats"
	"clustercast/internal/topology"
	"clustercast/internal/workload"
)

// trafficBackbone names one relay-structure series of the workload
// figures and builds its per-flow protocol factory over a clustered
// sample.
type trafficBackbone struct {
	name  string
	proto func(nw *topology.Network, cl *cluster.Clustering) workload.ProtoFactory
}

// trafficBackbones lists the four relay structures the workload figures
// compare: blind flooding, the static backbone (SI-CDS), the dynamic
// backbone (SD-CDS), and the MO_CDS. Each factory builds the structure
// once per replicate; the flooding/CDS protocols are stateless and the
// dynamic protocol keeps no cross-broadcast state outside its reuse
// arenas (off here), so one shared instance serves every flow.
func trafficBackbones() []trafficBackbone {
	return []trafficBackbone{
		{"flooding", func(nw *topology.Network, cl *cluster.Clustering) workload.ProtoFactory {
			return func(int) broadcast.Protocol { return broadcast.Flooding{} }
		}},
		{"static-2.5hop", func(nw *topology.Network, cl *cluster.Clustering) workload.ProtoFactory {
			s := backbone.BuildStatic(nw.G, cl, coverage.Hop25)
			p := broadcast.StaticCDS{Set: s.Nodes}
			return func(int) broadcast.Protocol { return p }
		}},
		{"dynamic-2.5hop", func(nw *topology.Network, cl *cluster.Clustering) workload.ProtoFactory {
			p := dynamicb.New(nw.G, cl, coverage.Hop25)
			return func(int) broadcast.Protocol { return p }
		}},
		{"mo-cds", func(nw *topology.Network, cl *cluster.Clustering) workload.ProtoFactory {
			c := mocds.Build(nw.G, cl)
			p := broadcast.StaticCDS{Set: c.Nodes, Label: "mocds"}
			return func(int) broadcast.Protocol { return p }
		}},
	}
}

// Traffic is the heavy-load ablation the single-shot figures never
// produced: concurrent Poisson broadcast flows contend for MAC slots, and
// delivery ratio plus end-to-end throughput are swept over the offered
// load. The paper's backbone argument is exactly that fewer forwarders
// keep the medium usable as load grows — flooding's delivery collapses
// first. ABL-TRAFFIC.
func Traffic(rates []float64, n int, d float64, flows, jitter int, seed uint64, rule stats.StopRule) *Figure {
	return loadFigure("traffic", rates, n, d, flows, jitter, seed, rule)
}

// Discovery measures backbone-assisted route discovery under load:
// concurrent RREQ floods share the MAC, each found route is the delivery
// tree's parent chain at the destination, and the RREP unicasts back over
// it. Success ratio and end-to-end discovery latency are swept over the
// offered load per backbone. ABL-DISCOVERY.
func Discovery(rates []float64, n int, d float64, flows, jitter int, seed uint64, rule stats.StopRule) *Figure {
	return loadFigure("discovery", rates, n, d, flows, jitter, seed, rule)
}

// loadFigure runs the traffic or the discovery figure: two metric series
// per relay structure, all drawn from one sample and one flow set per
// (offered load, replicate). A relay structure is built, and its
// multi-source MAC run made, only while one of its two series is still
// running; that one run feeds both metrics.
func loadFigure(id string, rates []float64, n int, d float64, flows, jitter int, seed uint64, rule stats.StopRule) *Figure {
	discovery := id == "discovery"
	fig := &Figure{
		ID:     id,
		Title:  fmt.Sprintf("Concurrent broadcast load (n=%d, d=%g, %d flows, jitter %d)", n, d, flows, jitter),
		XLabel: "offered load (arrivals/slot)", YLabel: "delivery ratio / throughput",
	}
	metrics := [2]string{"delivery", "throughput"}
	if discovery {
		fig.Title = fmt.Sprintf("Route discovery under load (n=%d, d=%g, %d floods, jitter %d)", n, d, flows, jitter)
		fig.YLabel = "success ratio / latency (slots)"
		metrics = [2]string{"success", "latency"}
	}
	bks := trafficBackbones()
	var names []string
	for _, bk := range bks {
		names = append(names, bk.name+"-"+metrics[0], bk.name+"-"+metrics[1])
	}
	opt := broadcast.MACOptions{Jitter: jitter}
	fig.Series = sweepSeries(names, rates, rule, func(i int) (Scenario, string, seriesDraw) {
		mw := broadcast.NewMultiMACWorkspace() // replicates run sequentially
		return DefaultScenario(n, d, seed), fmt.Sprintf("%s-%g", id, rates[i]), func(sh *shared) {
			spec := workload.Spec{
				Process: workload.Poisson, Rate: rates[i], Flows: flows,
				FanOut: 1, Discovery: discovery, Seed: seed ^ uint64(sh.rep),
			}
			fl, err := spec.Generate(sh.nw.N())
			if err != nil {
				return
			}
			g := sh.nw.G
			for b, bk := range bks {
				j := 2 * b
				if !sh.live[j] && !sh.live[j+1] {
					continue
				}
				proto := bk.proto(sh.nw, sh.cl)
				if !discovery {
					tr := workload.RunTraffic(g, fl, proto, opt, mw.Run)
					sh.xs[j], sh.oks[j] = tr.DeliveryRatio, true
					sh.xs[j+1], sh.oks[j+1] = tr.Throughput, true
					continue
				}
				// Latency is conditional on success: a replicate where every
				// flood failed contributes no sample rather than a spurious
				// zero.
				dr := workload.RunDiscovery(g, fl, proto, opt, mw.Run)
				sh.xs[j], sh.oks[j] = dr.SuccessRatio, dr.Requests > 0
				sh.xs[j+1], sh.oks[j+1] = dr.MeanLatency, dr.Found > 0
			}
		}
	})
	return fig
}
