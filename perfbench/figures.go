package main

import (
	"fmt"

	"clustercast/internal/backbone"
	"clustercast/internal/broadcast"
	"clustercast/internal/cluster"
	"clustercast/internal/coverage"
	"clustercast/internal/dynamicb"
	"clustercast/internal/experiment"
	"clustercast/internal/stats"
	"clustercast/internal/topology"
)

// figureSizes are the figures workload's parameters: cmd/figures' sweeps
// for Figures 6a–8b and the storm ablation, except that storm's d=4 point
// becomes a fixed budget of its draws (see sparseDraws).
type figureSizes struct {
	ns      []int
	degrees []float64
	stormN  int
	draws   int
}

func figuresSizes(tiny bool) figureSizes {
	if tiny {
		return figureSizes{ns: []int{20, 30}, degrees: []float64{10, 18}, stormN: 40, draws: 10}
	}
	return figureSizes{ns: experiment.DefaultNs(), degrees: []float64{6, 10, 14, 18, 24}, stormN: 80, draws: 1000}
}

// sparseDegree is storm's sparsest density: at n=80 most of its
// replicates exhaust the 200-draw budget.
const sparseDegree = 4

// figuresJob runs Figures 6a, 6b, 7a, 7b, 8a, 8b and the storm
// ablation under the paper's rule, then storm's first draws at d=4.
func figuresJob(p *pass) {
	sz := figuresSizes(p.cfg.tiny)
	seed, rule := p.cfg.seed, p.cfg.rule()
	p.ready()
	var figs []*experiment.Figure
	if p.tr == nil {
		for _, mk := range []func(d float64, ns []int, seed uint64, rule stats.StopRule) *experiment.Figure{
			experiment.Fig6, experiment.Fig7, experiment.Fig8,
		} {
			figs = append(figs, mk(6, sz.ns, seed, rule), mk(18, sz.ns, seed, rule))
		}
		figs = append(figs, experiment.Storm(sz.degrees, sz.stormN, seed, rule))
	} else {
		for _, mk := range []func(d float64, ns []int) *experiment.Figure{p.fig6, p.fig7, p.fig8} {
			figs = append(figs, mk(6, sz.ns), mk(18, sz.ns))
		}
		figs = append(figs, p.storm(sz.degrees, sz.stormN))
	}
	for _, f := range figs {
		p.addFigure(f)
	}
	p.sparseDraws(sz.stormN, sz.draws)
}

// sparseDraws draws the topologies of storm's d=4 point for its first
// replicate indices. Under the paper's rule that point's cost is a
// rare-event count (its wall time varied 3× across seeds), so the
// workload times a fixed number of its replicates instead: the same
// labels and streams, every skip a full 200-draw rejection run.
func (p *pass) sparseDraws(n, reps int) {
	sc := experiment.DefaultScenario(n, sparseDegree, p.cfg.seed)
	label := fmt.Sprintf("storm-%g", float64(sparseDegree))
	var k *track
	if p.tr != nil {
		k = p.tr.track(p.tr.newGroup())
	}
	var accepted []int
	for rep := 0; rep < reps; rep++ {
		var nw *topology.Network
		if k == nil {
			nw, _, _ = sc.Sample(label, rep)
		} else {
			k.begin(lReplicate, rep)
			var err error
			nw, _, err = sampleFresh(k, sc, label, rep)
			k.end()
			if err != nil {
				p.fail("storm d=4 rep %d: %v", rep, err)
			}
		}
		if nw != nil {
			if !nw.G.Connected() {
				p.fail("storm d=4 rep %d: accepted a disconnected network", rep)
			}
			accepted = append(accepted, rep, nw.G.M())
		}
	}
	p.out.Ops++
	p.out.Digests["storm-d4-draws"] = intsDigest(accepted)
	p.out.Results = map[string][]int{"storm-d4-accepted": {len(accepted) / 2}}
}

// figure assembles a replayed figure; only the ID and the series enter
// the digests.
func figure(id string, series ...experiment.Series) *experiment.Figure {
	return &experiment.Figure{ID: id, Series: series}
}

// sweep replays experiment's sweepWS: the points of one series across the
// worker pool, each point a parallel replication loop.
func (p *pass) sweep(name string, ns []int, d float64, est func(w *worker, sc experiment.Scenario, rep int) (float64, bool)) experiment.Series {
	s := experiment.Series{Name: name, Points: make([]experiment.Point, len(ns))}
	experiment.ForEachPoint(len(ns), func(i int) {
		sc := experiment.DefaultScenario(ns[i], d, p.cfg.seed)
		sc.Rule = p.cfg.rule()
		s.Points[i] = p.replicateWS(sc, func(w *worker, rep int) (float64, bool) { return est(w, sc, rep) })
	})
	return s
}

// clustered replays clusteredSampleWS.
func (p *pass) clustered(w *worker, sc experiment.Scenario, label string, rep int) (*topology.Network, *cluster.Clustering, func(n int) int, bool) {
	nw, r, err := w.sample(sc, label, rep)
	if err != nil {
		p.fail("%s n=%d rep %d: %v", label, sc.N, rep, err)
	}
	if nw == nil {
		return nil, nil, nil, false
	}
	return nw, w.elect(nw.G, rep), r.Intn, true
}

// digest replays Workspace.Digest.
func (w *worker) digest(nw *topology.Network, cl *cluster.Clustering, mode coverage.Mode, rep int) {
	w.k.begin(lCoverage, rep)
	w.ws.Digest(nw.G, cl, mode)
	w.k.end()
}

func (p *pass) staticSize(mode coverage.Mode) func(w *worker, sc experiment.Scenario, rep int) (float64, bool) {
	return func(w *worker, sc experiment.Scenario, rep int) (float64, bool) {
		nw, cl, _, ok := p.clustered(w, sc, "fig6-static", rep)
		if !ok {
			return 0, false
		}
		w.digest(nw, cl, mode, rep)
		w.k.begin(lBackbone, rep)
		size := w.ws.Backbone.StaticSize(&w.ws.Builder, cl, backbone.Options{})
		w.k.end()
		w.k.add(cBackboneNodes, size)
		return float64(size), true
	}
}

func (p *pass) mocdsSize(w *worker, sc experiment.Scenario, rep int) (float64, bool) {
	nw, cl, _, ok := p.clustered(w, sc, "fig6-mocds", rep)
	if !ok {
		return 0, false
	}
	w.digest(nw, cl, coverage.Hop3, rep)
	w.k.begin(lMOCDS, rep)
	size := w.ws.MOCDS.SizeFrom(&w.ws.Builder, cl)
	w.k.end()
	w.k.add(cMOCDSNodes, size)
	return float64(size), true
}

func (p *pass) dynamicForward(mode coverage.Mode) func(w *worker, sc experiment.Scenario, rep int) (float64, bool) {
	return func(w *worker, sc experiment.Scenario, rep int) (float64, bool) {
		nw, cl, source, ok := p.clustered(w, sc, "fig7-dynamic", rep)
		if !ok {
			return 0, false
		}
		w.k.begin(lDynInit, rep)
		proto := w.ws.Dynamic.NewWith(nw.G, cl, mode)
		w.k.end()
		src := source(nw.N())
		w.k.begin(lDynBcast, rep)
		fwd := proto.BroadcastWS(src).ForwardCount()
		w.k.end()
		w.k.add(cForwards, fwd)
		return float64(fwd), true
	}
}

// cdsForward broadcasts over a backbone node set on the ideal radio.
func (w *worker) cdsForward(nw *topology.Network, src int, set *broadcast.StaticCDSBits, rep int) float64 {
	w.k.begin(lIdeal, rep)
	fwd := w.ws.Bcast.Run(nw.G, src, *set).ForwardCount()
	w.k.end()
	return float64(fwd)
}

func (p *pass) staticForward(mode coverage.Mode) func(w *worker, sc experiment.Scenario, rep int) (float64, bool) {
	return func(w *worker, sc experiment.Scenario, rep int) (float64, bool) {
		nw, cl, source, ok := p.clustered(w, sc, "fig8-static", rep)
		if !ok {
			return 0, false
		}
		w.digest(nw, cl, mode, rep)
		w.k.begin(lBackbone, rep)
		nodes := w.ws.Backbone.StaticNodes(&w.ws.Builder, cl, backbone.Options{})
		w.k.end()
		w.k.add(cBackboneNodes, nodes.Count())
		return w.cdsForward(nw, source(nw.N()), &broadcast.StaticCDSBits{Set: nodes}, rep), true
	}
}

func (p *pass) mocdsForward(w *worker, sc experiment.Scenario, rep int) (float64, bool) {
	nw, cl, source, ok := p.clustered(w, sc, "fig7-mocds", rep)
	if !ok {
		return 0, false
	}
	w.digest(nw, cl, coverage.Hop3, rep)
	w.k.begin(lMOCDS, rep)
	nodes := w.ws.MOCDS.NodesFrom(&w.ws.Builder, cl)
	w.k.end()
	w.k.add(cMOCDSNodes, nodes.Count())
	return w.cdsForward(nw, source(nw.N()), &broadcast.StaticCDSBits{Set: nodes}, rep), true
}

// figID is experiment's panel naming: (a) d=6, (b) d=18.
func figID(base string, d float64) string {
	if d == 6 {
		return base + "a"
	}
	return base + "b"
}

func (p *pass) fig6(d float64, ns []int) *experiment.Figure {
	return figure(figID("fig6", d),
		p.sweep("static-2.5hop", ns, d, p.staticSize(coverage.Hop25)),
		p.sweep("static-3hop", ns, d, p.staticSize(coverage.Hop3)),
		p.sweep("mo-cds", ns, d, p.mocdsSize))
}

func (p *pass) fig7(d float64, ns []int) *experiment.Figure {
	return figure(figID("fig7", d),
		p.sweep("dynamic-2.5hop", ns, d, p.dynamicForward(coverage.Hop25)),
		p.sweep("dynamic-3hop", ns, d, p.dynamicForward(coverage.Hop3)),
		p.sweep("mo-cds", ns, d, p.mocdsForward))
}

func (p *pass) fig8(d float64, ns []int) *experiment.Figure {
	return figure(figID("fig8", d),
		p.sweep("static-2.5hop", ns, d, p.staticForward(coverage.Hop25)),
		p.sweep("static-3hop", ns, d, p.staticForward(coverage.Hop3)),
		p.sweep("dynamic-2.5hop", ns, d, p.dynamicForward(coverage.Hop25)),
		p.sweep("dynamic-3hop", ns, d, p.dynamicForward(coverage.Hop3)))
}

// storm replays experiment.Storm: five broadcast schemes over the same
// clustered samples, each series its own sequential replication per
// density.
func (p *pass) storm(degrees []float64, n int) *experiment.Figure {
	type scheme func(k *track, nw *topology.Network, cl *cluster.Clustering, src, rep int) *broadcast.Result
	timed := func(k *track, rep int, run func() *broadcast.Result) *broadcast.Result {
		k.begin(lTimed, rep)
		defer k.end()
		return run()
	}
	mk := func(name string, run scheme) experiment.Series {
		s := experiment.Series{Name: name, Points: make([]experiment.Point, len(degrees))}
		experiment.ForEachPoint(len(degrees), func(i int) {
			deg := degrees[i]
			sc := experiment.DefaultScenario(n, deg, p.cfg.seed)
			sc.Rule = p.cfg.rule()
			label := fmt.Sprintf("storm-%g", deg)
			s.Points[i] = p.replicate(sc, deg, func(k *track, rep int) (float64, bool) {
				nw, r, err := sampleFresh(k, sc, label, rep)
				if err != nil {
					p.fail("%s rep %d: %v", label, rep, err)
				}
				if nw == nil {
					return 0, false
				}
				cl := electFresh(k, nw.G, rep)
				return run(k, nw, cl, r.Intn(nw.N()), rep).Redundancy(), true
			})
		})
		return s
	}
	return figure("storm",
		mk("flooding", func(k *track, nw *topology.Network, _ *cluster.Clustering, src, rep int) *broadcast.Result {
			k.begin(lIdeal, rep)
			defer k.end()
			return broadcast.RunOpts(nw.G, src, broadcast.Flooding{}, broadcast.Options{})
		}),
		mk("dynamic-2.5hop", func(k *track, nw *topology.Network, cl *cluster.Clustering, src, rep int) *broadcast.Result {
			k.begin(lDynInit, rep)
			proto := dynamicb.New(nw.G, cl, coverage.Hop25)
			k.end()
			k.begin(lDynBcast, rep)
			res := proto.Broadcast(src)
			k.end()
			k.add(cForwards, res.ForwardCount())
			return res
		}),
		mk("sba-w4", func(k *track, nw *topology.Network, _ *cluster.Clustering, src, rep int) *broadcast.Result {
			return timed(k, rep, func() *broadcast.Result {
				return broadcast.RunTimed(nw.G, src, broadcast.NewSBA(broadcast.NewNeighborhood(nw.G), 4, 1))
			})
		}),
		mk("counter-3", func(k *track, nw *topology.Network, _ *cluster.Clustering, src, rep int) *broadcast.Result {
			return timed(k, rep, func() *broadcast.Result {
				return broadcast.RunTimed(nw.G, src, broadcast.CounterBased{Threshold: 3, MaxDelay: 4, Seed: 1})
			})
		}),
		mk("distance-0.4r", func(k *track, nw *topology.Network, _ *cluster.Clustering, src, rep int) *broadcast.Result {
			return timed(k, rep, func() *broadcast.Result {
				return broadcast.RunTimed(nw.G, src, broadcast.DistanceBased{
					Positions: nw.Positions, MinDistance: nw.Radius * 0.4, MaxDelay: 4, Seed: 1,
				})
			})
		}),
	)
}
