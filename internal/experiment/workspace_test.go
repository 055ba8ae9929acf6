package experiment

import (
	"testing"

	"clustercast/internal/backbone"
	"clustercast/internal/broadcast"
	"clustercast/internal/coverage"
	"clustercast/internal/dynamicb"
	"clustercast/internal/mocds"
)

// TestWorkspaceSweepsMatchLegacy proves every workspace-threaded estimator
// reproduces its allocating counterpart point-for-point: same means, CIs
// and replicate counts under the identical (seed, label, rep) randomness.
func TestWorkspaceSweepsMatchLegacy(t *testing.T) {
	pairs := []struct {
		name   string
		legacy Estimator
		ws     WSEstimator
	}{
		{"static-size-2.5hop", staticSizeOracle(coverage.Hop25), StaticSizeEstimatorWS(coverage.Hop25)},
		{"static-size-3hop", staticSizeOracle(coverage.Hop3), StaticSizeEstimatorWS(coverage.Hop3)},
		{"mocds-size", mocdsSizeOracle(), MOCDSSizeEstimatorWS()},
		{"dynamic-fwd-2.5hop", dynamicForwardOracle(coverage.Hop25), DynamicForwardEstimatorWS(coverage.Hop25)},
		{"dynamic-fwd-3hop", dynamicForwardOracle(coverage.Hop3), DynamicForwardEstimatorWS(coverage.Hop3)},
		{"static-fwd-2.5hop", staticForwardOracle(coverage.Hop25), StaticForwardEstimatorWS(coverage.Hop25)},
		{"mocds-fwd", mocdsForwardOracle(), MOCDSForwardEstimatorWS()},
	}
	ns := smallNs()
	for _, p := range pairs {
		want := sweep(p.name, ns, 6, 33, fastRule(), p.legacy)
		got := sweepWS(p.name, ns, 6, 33, fastRule(), p.ws)
		for i := range want.Points {
			if got.Points[i] != want.Points[i] {
				t.Errorf("%s: point %d = %+v, legacy %+v", p.name, i, got.Points[i], want.Points[i])
			}
		}
	}
}

// The allocating map-based estimators below are the oracles of
// TestWorkspaceSweepsMatchLegacy: each builds its backbone through the
// packages' plain constructors (fresh builder, maps, no workspace reuse).

// staticSizeOracle measures |static backbone| under a coverage mode
// (Figure 6 series "static backbone").
func staticSizeOracle(mode coverage.Mode) Estimator {
	return func(sc Scenario, rep int) (float64, bool) {
		nw, cl, _, ok := clusteredSample(sc, "fig6-static", rep)
		if !ok {
			return 0, false
		}
		return float64(backbone.BuildStatic(nw.G, cl, mode).Size()), true
	}
}

// mocdsSizeOracle measures |MO_CDS| (Figure 6 series "MO_CDS").
func mocdsSizeOracle() Estimator {
	return func(sc Scenario, rep int) (float64, bool) {
		nw, cl, _, ok := clusteredSample(sc, "fig6-mocds", rep)
		if !ok {
			return 0, false
		}
		return float64(mocds.Build(nw.G, cl).Size()), true
	}
}

// dynamicForwardOracle measures the forward-node-set size of one
// dynamic-backbone broadcast from a random source (Figure 7/8 series
// "dynamic backbone").
func dynamicForwardOracle(mode coverage.Mode) Estimator {
	return func(sc Scenario, rep int) (float64, bool) {
		nw, cl, r, ok := clusteredSample(sc, "fig7-dynamic", rep)
		if !ok {
			return 0, false
		}
		p := dynamicb.New(nw.G, cl, mode)
		res := p.Broadcast(r.source(nw.N()))
		return float64(res.ForwardCount()), true
	}
}

// staticForwardOracle measures the forward-node-set size of a broadcast
// over the static backbone from a random source (Figure 8 series "static
// backbone").
func staticForwardOracle(mode coverage.Mode) Estimator {
	return func(sc Scenario, rep int) (float64, bool) {
		nw, cl, r, ok := clusteredSample(sc, "fig8-static", rep)
		if !ok {
			return 0, false
		}
		s := backbone.BuildStatic(nw.G, cl, mode)
		res := broadcast.Run(nw.G, r.source(nw.N()), broadcast.StaticCDS{Set: s.Nodes})
		return float64(res.ForwardCount()), true
	}
}

// mocdsForwardOracle measures the forward-node-set size of a broadcast
// over the MO_CDS from a random source (Figure 7 series "MO_CDS").
func mocdsForwardOracle() Estimator {
	return func(sc Scenario, rep int) (float64, bool) {
		nw, cl, r, ok := clusteredSample(sc, "fig7-mocds", rep)
		if !ok {
			return 0, false
		}
		c := mocds.Build(nw.G, cl)
		res := broadcast.Run(nw.G, r.source(nw.N()), broadcast.StaticCDS{Set: c.Nodes})
		return float64(res.ForwardCount()), true
	}
}
