package main

import (
	"fmt"

	"clustercast/internal/backbone"
	"clustercast/internal/broadcast"
	"clustercast/internal/cluster"
	"clustercast/internal/coverage"
	"clustercast/internal/dynamicb"
	"clustercast/internal/experiment"
	"clustercast/internal/mocds"
	"clustercast/internal/routing"
	"clustercast/internal/topology"
	"clustercast/internal/workload"
)

// trafficSizes are cmd/figures' parameters for the traffic and discovery
// figures.
type trafficSizes struct {
	rates                 []float64
	n                     int
	d                     float64
	flows, floods, jitter int
}

func trafficSizesFor(tiny bool) trafficSizes {
	if tiny {
		return trafficSizes{rates: []float64{0.1, 0.4}, n: 30, d: 10, flows: 8, floods: 6, jitter: 3}
	}
	return trafficSizes{rates: []float64{0.05, 0.1, 0.2, 0.4, 0.8}, n: 60, d: 10, flows: 32, floods: 24, jitter: 3}
}

// trafficJob runs the traffic and discovery figures under the paper's
// rule.
func trafficJob(p *pass) {
	sz := trafficSizesFor(p.cfg.tiny)
	seed, rule := p.cfg.seed, p.cfg.rule()
	p.ready()
	if p.tr == nil {
		p.addFigure(experiment.Traffic(sz.rates, sz.n, sz.d, sz.flows, sz.jitter, seed, rule))
		p.addFigure(experiment.Discovery(sz.rates, sz.n, sz.d, sz.floods, sz.jitter, seed, rule))
		return
	}
	p.addFigure(p.loadFigure("traffic", sz, sz.flows, false))
	p.addFigure(p.loadFigure("discovery", sz, sz.floods, true))
}

// relay is one relay structure of the workload figures, built once per
// replicate: experiment's trafficBackbones, with construction timed.
type relay struct {
	name  string
	proto func(k *track, nw *topology.Network, cl *cluster.Clustering, rep int) workload.ProtoFactory
}

var relays = []relay{
	{"flooding", func(*track, *topology.Network, *cluster.Clustering, int) workload.ProtoFactory {
		return func(int) broadcast.Protocol { return broadcast.Flooding{} }
	}},
	{"static-2.5hop", func(k *track, nw *topology.Network, cl *cluster.Clustering, rep int) workload.ProtoFactory {
		b := newBuilder(k, nw, cl, coverage.Hop25, rep)
		k.begin(lBackbone, rep)
		s := backbone.BuildStaticFrom(b, cl)
		k.end()
		k.add(cBackboneNodes, s.Size())
		p := broadcast.StaticCDS{Set: s.Nodes}
		return func(int) broadcast.Protocol { return p }
	}},
	{"dynamic-2.5hop", func(k *track, nw *topology.Network, cl *cluster.Clustering, rep int) workload.ProtoFactory {
		k.begin(lDynInit, rep)
		p := dynamicb.New(nw.G, cl, coverage.Hop25)
		k.end()
		return func(int) broadcast.Protocol { return p }
	}},
	{"mo-cds", func(k *track, nw *topology.Network, cl *cluster.Clustering, rep int) workload.ProtoFactory {
		b := newBuilder(k, nw, cl, coverage.Hop3, rep)
		k.begin(lMOCDS, rep)
		c := mocds.BuildFrom(b, cl)
		k.end()
		k.add(cMOCDSNodes, c.Size())
		p := broadcast.StaticCDS{Set: c.Nodes, Label: "mocds"}
		return func(int) broadcast.Protocol { return p }
	}},
}

// newBuilder digests coverage for a relay structure: the first half of
// backbone.BuildStatic and mocds.Build.
func newBuilder(k *track, nw *topology.Network, cl *cluster.Clustering, mode coverage.Mode, rep int) *coverage.Builder {
	k.begin(lCoverage, rep)
	defer k.end()
	return coverage.NewBuilder(nw.G, cl, mode)
}

// loadFigure replays experiment.Traffic (discovery=false) or
// experiment.Discovery: per relay structure and metric, one series of
// sequential replication loops over the offered loads.
func (p *pass) loadFigure(id string, sz trafficSizes, flows int, discovery bool) *experiment.Figure {
	names := [2]string{"delivery", "throughput"}
	if discovery {
		names = [2]string{"success", "latency"}
	}
	var series []experiment.Series
	for _, rl := range relays {
		for mi, metric := range names {
			s := experiment.Series{Name: rl.name + "-" + metric, Points: make([]experiment.Point, len(sz.rates))}
			experiment.ForEachPoint(len(sz.rates), func(i int) {
				rate := sz.rates[i]
				sc := experiment.DefaultScenario(sz.n, sz.d, p.cfg.seed)
				sc.Rule = p.cfg.rule()
				label := fmt.Sprintf("%s-%g", id, rate)
				s.Points[i] = p.replicate(sc, rate, func(k *track, rep int) (float64, bool) {
					nw, _, err := sampleFresh(k, sc, label, rep)
					if err != nil {
						p.fail("%s rep %d: %v", label, rep, err)
					}
					if nw == nil {
						return 0, false
					}
					cl := electFresh(k, nw.G, rep)
					k.begin(lWorkload, rep)
					defer k.end()
					spec := workload.Spec{
						Process: workload.Poisson, Rate: rate, Flows: flows,
						FanOut: 1, Discovery: discovery, Seed: sc.Seed ^ uint64(rep),
					}
					fl, err := spec.Generate(nw.N())
					if err != nil {
						return 0, false
					}
					k.add(cFlows, len(fl))
					proto := rl.proto(k, nw, cl, rep)
					opt := broadcast.MACOptions{Jitter: sz.jitter}
					if !discovery {
						tr := workload.RunTraffic(nw.G, fl, proto, opt, multiEngine(k, rep))
						if mi == 0 {
							return tr.DeliveryRatio, true
						}
						return tr.Throughput, true
					}
					dr := discover(k, nw, fl, proto, opt, rep)
					if mi == 0 {
						return dr.SuccessRatio, dr.Requests > 0
					}
					// Latency is conditional on success, as in the figure.
					return dr.MeanLatency, dr.Found > 0
				})
			})
			series = append(series, s)
		}
	}
	return figure(id, series...)
}

// discover replays workload.RunDiscovery with each route extraction
// timed: the RREQ floods share the MAC, and every destination that
// decoded its request yields the delivery tree's parent chain.
func discover(k *track, nw *topology.Network, flows []workload.Flow, proto workload.ProtoFactory, opt broadcast.MACOptions, rep int) *workload.DiscoveryResult {
	res := multiEngine(k, rep)(nw.G, workload.MultiFlows(flows, proto), opt)
	out := &workload.DiscoveryResult{Requests: len(res.Flows)}
	latSum := 0.0
	for i, fr := range res.Flows {
		f := &flows[i]
		out.RequestCost += fr.ForwardCount()
		if f.Dst < 0 || fr.DstSlot < 0 {
			continue
		}
		k.begin(lRouting, rep)
		route, err := routing.ExtractRoute(nw.G, f.Src, f.Dst, &fr.Result, fr.ForwardCount())
		if err == nil {
			out.Found++
			out.ReplyCost += route.ReplyCost
			out.MeanRouteLen += float64(route.Len())
			out.MeanStretch += route.Stretch(nw.G)
			latSum += float64(fr.DstSlot-f.Start) + float64(route.ReplyCost)
		}
		k.end()
	}
	if out.Found > 0 {
		out.MeanLatency = latSum / float64(out.Found)
		out.MeanRouteLen /= float64(out.Found)
		out.MeanStretch /= float64(out.Found)
	}
	if out.Requests > 0 {
		out.SuccessRatio = float64(out.Found) / float64(out.Requests)
	}
	k.add(cRequests, out.Requests)
	k.add(cFound, out.Found)
	return out
}
