package experiment

import (
	"sync"
	"time"

	"clustercast/internal/backbone"
	"clustercast/internal/broadcast"
	"clustercast/internal/cluster"
	"clustercast/internal/coverage"
	"clustercast/internal/dynamicb"
	"clustercast/internal/graph"
	"clustercast/internal/mocds"
	"clustercast/internal/obs"
	"clustercast/internal/rng"
	"clustercast/internal/stats"
	"clustercast/internal/topology"
)

// Workspace composes the per-subsystem workspaces one replicate pipeline
// needs: topology sampling, clusterhead election, coverage digestion,
// gateway selection, the MO_CDS baseline and the dynamic-backbone
// protocol. Each worker of a sweep owns one Workspace for the duration of
// a data point, so steady-state replicates allocate (almost) nothing.
//
// Everything an estimator derives from a workspace — the sampled network,
// the clustering, coverage sets, node bitsets — is valid only until the
// workspace's next replicate.
type Workspace struct {
	Topo     *topology.Workspace
	Cluster  *cluster.Workspace
	Builder  coverage.Builder
	Backbone *backbone.Workspace
	MOCDS    *mocds.Workspace
	Dynamic  *dynamicb.Workspace
	Bcast    *broadcast.Workspace
	Batch    broadcast.BatchWorkspace

	// Clock accumulates per-stage wall time for this worker when
	// observability is enabled. SweepPoint merges worker clocks into the
	// process-wide stage table in worker-index order, so the aggregate is
	// deterministic for any scheduling.
	Clock obs.StageClock

	rng rng.Stream // per-replicate stream, reseeded by SampleWS
	src rng.Stream // split child handed to estimators (source selection)
}

// NewWorkspace returns an empty workspace; all buffers grow on first use.
func NewWorkspace() *Workspace {
	return &Workspace{
		Topo:     topology.NewWorkspace(),
		Cluster:  cluster.NewWorkspace(),
		Backbone: backbone.NewWorkspace(),
		MOCDS:    mocds.NewWorkspace(),
		Dynamic:  dynamicb.NewWorkspace(),
		Bcast:    broadcast.NewWorkspace(),
	}
}

// wsPool recycles workspaces across data points, so a whole figure run
// needs only about worker-count workspaces in flight.
var wsPool = sync.Pool{New: func() any { return NewWorkspace() }}

// SampleWS is Scenario.Sample over a reusable workspace: identical
// randomness consumption (reseed instead of construct, split-into instead
// of split), identical rejection sampling, bit-identical network.
func (sc Scenario) SampleWS(ws *Workspace, label string, rep int) (*topology.Network, *rng.Stream, bool) {
	if obs.Enabled() {
		defer ws.Clock.Observe("sample", time.Now())
	}
	ws.rng.SeedLabeled(sc.Seed^uint64(rep)*0x9E3779B97F4A7C15, label)
	nw, err := topology.GenerateWith(topology.Config{
		N: sc.N, Bounds: sc.Bounds, AvgDegree: sc.AvgDegree,
		RequireConnected: true, MaxAttempts: 200,
	}, ws.Topo, &ws.rng)
	if err != nil {
		noteSampleError(label, rep, err)
		return nil, nil, false
	}
	ws.rng.SplitInto(&ws.src)
	return nw, &ws.src, true
}

// WSEstimator measures one replicate of a metric using workspace-owned
// buffers. ok=false skips the replicate (discarded topology).
type WSEstimator func(ws *Workspace, sc Scenario, rep int) (float64, bool)

// SweepPoint measures one data point of a series: the scenario's adaptive
// replication loop over the given worker count, with one pooled workspace
// per worker. The Point is bit-identical for every worker count (see
// stats.ReplicateNWorker).
func SweepPoint(sc Scenario, workers int, est WSEstimator) Point {
	slots := workers
	if slots < 1 {
		slots = 1
	}
	wss := make([]*Workspace, slots)
	timed := obs.Enabled() // snapshot once: a mid-point toggle must not skew stage sums
	sum, err := stats.ReplicateNWorker(sc.Rule, workers, func(worker, rep int) (float64, bool) {
		ws := wss[worker]
		if ws == nil {
			ws = wsPool.Get().(*Workspace)
			wss[worker] = ws
		}
		if timed {
			defer ws.Clock.Observe("replicate", time.Now())
		}
		return est(ws, sc, rep)
	})
	release(timed, wss...)
	if err != nil {
		// Record an empty point; renderers show it as missing (Reps == 0).
		return Point{X: float64(sc.N)}
	}
	return Point{X: float64(sc.N), Mean: sum.Mean(), CI: sum.CI(0.99), Reps: sum.N()}
}

// release returns a point's workspaces to the pool. When the point was
// timed it first folds their stage clocks into the global stage table in
// slice (worker-index) order: replicate rep always runs on worker
// rep%workers, so the aggregate is identical for any scheduling of the
// same run. Pooled workspaces must not leak stage time across points.
func release(timed bool, wss ...*Workspace) {
	if timed {
		clocks := make([]*obs.StageClock, 0, len(wss))
		for _, ws := range wss {
			if ws != nil {
				clocks = append(clocks, &ws.Clock)
			}
		}
		obs.MergeStages(clocks...)
	}
	for _, ws := range wss {
		if ws != nil {
			ws.Clock.Reset()
			wsPool.Put(ws)
		}
	}
}

// shared is one replicate of a point, drawn once and handed to the
// point's seriesDraw: the clustered sample (workspace-owned, valid only
// until the next replicate), the replicate's random stream, and the
// per-series slots of stats.ReplicateSeries. The draw fills xs[j], oks[j]
// for each live series j; values of stopped series are ignored.
type shared struct {
	nw   *topology.Network
	cl   *cluster.Clustering
	r    *rng.Stream
	rep  int
	live []bool
	xs   []float64
	oks  []bool
}

// seriesDraw measures every live series of a point on one shared
// replicate.
type seriesDraw func(sh *shared)

// sweepSeries measures the named series over the points xs. Point i's
// scenario, sample label and draw come from point(i); every series of the
// point reads the same (label, rep) sample, drawn once per replicate for
// all series still running, and a failed sample skips all of them. Each
// series' Point is therefore bit-identical to its own stats.Replicate
// loop over the same label. Points run across the worker pool;
// replicates within a point run sequentially on one pooled workspace.
func sweepSeries(names []string, xs []float64, rule stats.StopRule, point func(i int) (Scenario, string, seriesDraw)) []Series {
	series := make([]Series, len(names))
	for j, name := range names {
		series[j] = Series{Name: name, Points: make([]Point, len(xs))}
	}
	ForEachPoint(len(xs), func(i int) {
		sc, label, draw := point(i)
		timed := obs.Enabled()
		ws := wsPool.Get().(*Workspace)
		sh := &shared{}
		sums, errs := stats.ReplicateSeries(rule, len(names), func(rep int, live []bool, vals []float64, oks []bool) {
			var ok bool
			if sh.nw, sh.cl, sh.r, ok = clusteredSampleWS(ws, sc, label, rep); ok {
				sh.rep, sh.live, sh.xs, sh.oks = rep, live, vals, oks
				draw(sh)
			}
		})
		release(timed, ws)
		for j, sum := range sums {
			p := Point{X: xs[i]} // missing: no observations
			if errs[j] == nil {
				p = Point{X: xs[i], Mean: sum.Mean(), CI: sum.CI(0.99), Reps: sum.N()}
			}
			series[j].Points[i] = p
		}
	})
	return series
}

// sweepWS is sweep for workspace-threaded estimators.
func sweepWS(name string, ns []int, d float64, seed uint64, rule stats.StopRule, est WSEstimator) Series {
	workers := Parallelism() // read once per run; race-safe snapshot
	s := Series{Name: name, Points: make([]Point, len(ns))}
	forEachPoint(len(ns), workers, func(i int) {
		sc := DefaultScenario(ns[i], d, seed)
		sc.Rule = rule
		s.Points[i] = SweepPoint(sc, workers, est)
	})
	return s
}

// Elect runs the lowest-ID clusterhead election on the workspace. The
// returned Clustering is workspace-owned.
func (ws *Workspace) Elect(g *graph.Graph) *cluster.Clustering {
	return ws.Cluster.LowestID(g)
}

// Digest re-digests the workspace coverage builder for a clustered
// network.
func (ws *Workspace) Digest(g *graph.Graph, cl *cluster.Clustering, mode coverage.Mode) {
	ws.Builder.Reset(g, cl, mode)
}

// clusteredSampleWS draws a topology and its lowest-ID clustering over the
// workspace.
func clusteredSampleWS(ws *Workspace, sc Scenario, label string, rep int) (*topology.Network, *cluster.Clustering, *rng.Stream, bool) {
	nw, r, ok := sc.SampleWS(ws, label, rep)
	if !ok {
		return nil, nil, nil, false
	}
	return nw, ws.Elect(nw.G), r, true
}

// StaticSizeEstimatorWS measures |static backbone| under a coverage mode
// (Figure 6 series "static backbone") over a reusable workspace, with
// near-zero allocations.
func StaticSizeEstimatorWS(mode coverage.Mode) WSEstimator {
	return func(ws *Workspace, sc Scenario, rep int) (float64, bool) {
		nw, cl, _, ok := clusteredSampleWS(ws, sc, "fig6-static", rep)
		if !ok {
			return 0, false
		}
		ws.Digest(nw.G, cl, mode)
		return float64(ws.Backbone.StaticSize(&ws.Builder, cl, backbone.Options{})), true
	}
}

// MOCDSSizeEstimatorWS measures |MO_CDS| (Figure 6 series "MO_CDS") over
// a reusable workspace.
func MOCDSSizeEstimatorWS() WSEstimator {
	return func(ws *Workspace, sc Scenario, rep int) (float64, bool) {
		nw, cl, _, ok := clusteredSampleWS(ws, sc, "fig6-mocds", rep)
		if !ok {
			return 0, false
		}
		ws.Digest(nw.G, cl, coverage.Hop3)
		return float64(ws.MOCDS.SizeFrom(&ws.Builder, cl)), true
	}
}

// DynamicForwardEstimatorWS measures the forward-node-set size of one
// dynamic-backbone broadcast from a random source (Figure 7/8 series
// "dynamic backbone") over a reusable workspace.
func DynamicForwardEstimatorWS(mode coverage.Mode) WSEstimator {
	return func(ws *Workspace, sc Scenario, rep int) (float64, bool) {
		nw, cl, r, ok := clusteredSampleWS(ws, sc, "fig7-dynamic", rep)
		if !ok {
			return 0, false
		}
		p := ws.Dynamic.NewWith(nw.G, cl, mode)
		res := p.BroadcastWS(r.Intn(nw.N()))
		return float64(res.ForwardCount()), true
	}
}

// StaticForwardEstimatorWS measures the forward-node-set size of a
// broadcast over the static backbone from a random source (Figure 8
// series "static backbone") over a reusable workspace.
func StaticForwardEstimatorWS(mode coverage.Mode) WSEstimator {
	return func(ws *Workspace, sc Scenario, rep int) (float64, bool) {
		nw, cl, r, ok := clusteredSampleWS(ws, sc, "fig8-static", rep)
		if !ok {
			return 0, false
		}
		ws.Digest(nw.G, cl, mode)
		nodes := ws.Backbone.StaticNodes(&ws.Builder, cl, backbone.Options{})
		res := ws.Bcast.Run(nw.G, r.Intn(nw.N()), broadcast.StaticCDSBits{Set: nodes})
		return float64(res.ForwardCount()), true
	}
}

// MOCDSForwardEstimatorWS measures the forward-node-set size of a
// broadcast over the MO_CDS from a random source (Figure 7 series
// "MO_CDS") over a reusable workspace.
func MOCDSForwardEstimatorWS() WSEstimator {
	return func(ws *Workspace, sc Scenario, rep int) (float64, bool) {
		nw, cl, r, ok := clusteredSampleWS(ws, sc, "fig7-mocds", rep)
		if !ok {
			return 0, false
		}
		ws.Digest(nw.G, cl, coverage.Hop3)
		nodes := ws.MOCDS.NodesFrom(&ws.Builder, cl)
		res := ws.Bcast.Run(nw.G, r.Intn(nw.N()), broadcast.StaticCDSBits{Set: nodes})
		return float64(res.ForwardCount()), true
	}
}
