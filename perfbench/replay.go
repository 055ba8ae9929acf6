package main

import (
	"errors"
	"sync"

	"clustercast/internal/broadcast"
	"clustercast/internal/cluster"
	"clustercast/internal/experiment"
	"clustercast/internal/graph"
	"clustercast/internal/rng"
	"clustercast/internal/stats"
	"clustercast/internal/topology"
	"clustercast/internal/workload"
)

// The replay calls each layer's public functions itself, with the same
// scenarios, labels, replicate indices and stopping rule as the
// experiment package, so it reproduces the untraced run's values exactly
// (run.py checks the digests) while timing every layer call.

// drawBudget is experiment.Scenario's rejection-sampling budget per
// replicate.
const drawBudget = 200

// repSeed is the per-replicate seed experiment.Scenario derives.
func repSeed(sc experiment.Scenario, rep int) uint64 {
	return sc.Seed ^ uint64(rep)*0x9E3779B97F4A7C15
}

// draw is topology.GenerateWith's rejection loop, one candidate per call
// so that draws can be counted: each call consumes exactly one
// candidate's randomness, so the accepted network is the same. It returns
// nil when the budget is exhausted (a skip, not a failure).
func draw(k *track, sc experiment.Scenario, ws *topology.Workspace, r *rng.Stream, rep int) (*topology.Network, error) {
	k.begin(lTopology, rep)
	defer k.end()
	cfg := topology.Config{N: sc.N, Bounds: sc.Bounds, AvgDegree: sc.AvgDegree, RequireConnected: true, MaxAttempts: 1}
	for a := 0; a < drawBudget; a++ {
		k.add(cAttempts, 1)
		nw, err := topology.GenerateWith(cfg, ws, r)
		if err == nil {
			k.add(cAccepted, 1)
			return nw, nil
		}
		if !errors.Is(err, topology.ErrDisconnected) {
			return nil, err
		}
	}
	k.add(cSkips, 1)
	return nil, nil
}

// sampleFresh replays Scenario.Sample: a fresh workspace per replicate and
// the split stream for source selection.
func sampleFresh(k *track, sc experiment.Scenario, label string, rep int) (*topology.Network, *rng.Stream, error) {
	r := rng.NewLabeled(repSeed(sc, rep), label)
	nw, err := draw(k, sc, topology.NewWorkspace(), r, rep)
	if nw == nil {
		return nil, nil, err
	}
	return nw, r.Split(), nil
}

// electFresh replays the allocating lowest-ID election of the ablations.
func electFresh(k *track, g *graph.Graph, rep int) *cluster.Clustering {
	k.begin(lCluster, rep)
	cl := cluster.LowestID(g)
	k.end()
	k.add(cHeads, len(cl.Heads))
	return cl
}

// worker is one replication worker's reusable state: the experiment
// workspace plus the two streams experiment.Workspace keeps privately.
type worker struct {
	ws     *experiment.Workspace
	r, src rng.Stream
	k      *track
}

var workerPool = sync.Pool{New: func() any { return &worker{ws: experiment.NewWorkspace()} }}

// sample replays Scenario.SampleWS over the worker's workspace.
func (w *worker) sample(sc experiment.Scenario, label string, rep int) (*topology.Network, *rng.Stream, error) {
	w.r.SeedLabeled(repSeed(sc, rep), label)
	nw, err := draw(w.k, sc, w.ws.Topo, &w.r, rep)
	if nw == nil {
		return nil, nil, err
	}
	w.r.SplitInto(&w.src)
	return nw, &w.src, nil
}

// elect runs the workspace election the experiment package dispatches to.
func (w *worker) elect(g *graph.Graph, rep int) *cluster.Clustering {
	w.k.begin(lCluster, rep)
	cl := w.ws.Elect(g)
	w.k.end()
	w.k.add(cHeads, len(cl.Heads))
	return cl
}

// point converts a replication summary to a figure point.
func point(x float64, sum *stats.Summary, err error) experiment.Point {
	if err != nil {
		return experiment.Point{X: x}
	}
	return experiment.Point{X: x, Mean: sum.Mean(), CI: sum.CI(0.99), Reps: sum.N()}
}

// replicateWS replays experiment.SweepPoint: the parallel replication
// loop with one pooled workspace per worker. est returns ok=false to skip.
func (p *pass) replicateWS(sc experiment.Scenario, est func(w *worker, rep int) (float64, bool)) experiment.Point {
	workers := experiment.Parallelism()
	group := p.tr.newGroup()
	pk := p.tr.track(group)
	wss := make([]*worker, max(workers, 1))
	pk.begin(lPoint, 0)
	sum, err := stats.ReplicateNWorker(sc.Rule, workers, func(wi, rep int) (float64, bool) {
		w := wss[wi]
		if w == nil {
			w = workerPool.Get().(*worker)
			w.k = p.tr.track(group)
			wss[wi] = w
		}
		w.k.begin(lReplicate, rep)
		x, ok := est(w, rep)
		w.k.end()
		if !ok {
			w.k.add(cRepSkips, 1)
		}
		return x, ok
	})
	pk.end()
	for _, w := range wss {
		if w != nil {
			w.k = nil
			workerPool.Put(w)
		}
	}
	if err == nil {
		pk.add(cReps, sum.N())
	}
	return point(float64(sc.N), sum, err)
}

// replicate replays the sequential stats.Replicate loop the ablations
// run per point.
func (p *pass) replicate(sc experiment.Scenario, x float64, est func(k *track, rep int) (float64, bool)) experiment.Point {
	k := p.tr.track(p.tr.newGroup())
	k.begin(lPoint, 0)
	sum, err := stats.Replicate(sc.Rule, func(rep int) (float64, bool) {
		k.begin(lReplicate, rep)
		v, ok := est(k, rep)
		k.end()
		if !ok {
			k.add(cRepSkips, 1)
		}
		return v, ok
	})
	k.end()
	if err == nil {
		k.add(cReps, sum.N())
	}
	return point(x, sum, err)
}

// multiEngine is the multi-source MAC engine the workload figures run by
// default, timed and counted.
func multiEngine(k *track, rep int) workload.Engine {
	return func(g *graph.Graph, flows []broadcast.MultiFlow, opt broadcast.MACOptions) *broadcast.MultiResult {
		k.begin(lMulti, rep)
		res := broadcast.RunMACMulti(g, flows, opt)
		k.end()
		k.add(cTransmissions, res.Transmissions)
		k.add(cCollisions, res.SharedCollisions)
		for _, f := range res.Flows {
			first := len(f.Received) - 1
			k.add(cFirst, first)
			k.add(cCopies, first+f.Duplicates+f.LostCopies)
		}
		return res
	}
}
