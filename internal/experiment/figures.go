package experiment

import (
	"fmt"

	"clustercast/internal/cluster"
	"clustercast/internal/coverage"
	"clustercast/internal/stats"
	"clustercast/internal/topology"
)

// clusteredSample draws a topology and its lowest-ID clustering.
func clusteredSample(sc Scenario, label string, rep int) (*topology.Network, *cluster.Clustering, *rngSplit, bool) {
	nw, r, ok := sc.Sample(label, rep)
	if !ok {
		return nil, nil, nil, false
	}
	return nw, cluster.LowestID(nw.G), &rngSplit{r}, true
}

// rngSplit wraps the per-replicate stream with the one operation the
// estimators need.
type rngSplit struct{ r interface{ Intn(int) int } }

func (s *rngSplit) source(n int) int { return s.r.Intn(n) }

// atDegree returns sweepSeries' point function for an average-degree
// sweep at n nodes: point i samples under the label "<prefix>-<degree>".
func atDegree(prefix string, degrees []float64, n int, seed uint64, draw seriesDraw) func(int) (Scenario, string, seriesDraw) {
	return func(i int) (Scenario, string, seriesDraw) {
		return DefaultScenario(n, degrees[i], seed), fmt.Sprintf("%s-%g", prefix, degrees[i]), draw
	}
}

// atSize returns sweepSeries' point function for a network-size sweep at
// average degree d: every point samples under label.
func atSize(label string, ns []int, d float64, seed uint64, draw seriesDraw) func(int) (Scenario, string, seriesDraw) {
	return func(i int) (Scenario, string, seriesDraw) {
		return DefaultScenario(ns[i], d, seed), label, draw
	}
}

// sizes returns the network sizes as sweep coordinates.
func sizes(ns []int) []float64 {
	xs := make([]float64, len(ns))
	for i, n := range ns {
		xs[i] = float64(n)
	}
	return xs
}

// Fig6 reproduces Figure 6: average size of the CDS — static backbone
// (2.5-hop and 3-hop) vs MO_CDS — for the given average degree d.
func Fig6(d float64, ns []int, seed uint64, rule stats.StopRule) *Figure {
	return &Figure{
		ID:     figID("fig6", d),
		Title:  fmt.Sprintf("Average size of the CDS (d=%g)", d),
		XLabel: "n", YLabel: "CDS size",
		Series: []Series{
			sweepWS("static-2.5hop", ns, d, seed, rule, StaticSizeEstimatorWS(coverage.Hop25)),
			sweepWS("static-3hop", ns, d, seed, rule, StaticSizeEstimatorWS(coverage.Hop3)),
			sweepWS("mo-cds", ns, d, seed, rule, MOCDSSizeEstimatorWS()),
		},
	}
}

// Fig7 reproduces Figure 7: average size of the forward node set — dynamic
// backbone (2.5-hop and 3-hop) vs broadcasting over the MO_CDS.
func Fig7(d float64, ns []int, seed uint64, rule stats.StopRule) *Figure {
	return &Figure{
		ID:     figID("fig7", d),
		Title:  fmt.Sprintf("Average size of the forward node set (d=%g)", d),
		XLabel: "n", YLabel: "forward nodes",
		Series: []Series{
			sweepWS("dynamic-2.5hop", ns, d, seed, rule, DynamicForwardEstimatorWS(coverage.Hop25)),
			sweepWS("dynamic-3hop", ns, d, seed, rule, DynamicForwardEstimatorWS(coverage.Hop3)),
			sweepWS("mo-cds", ns, d, seed, rule, MOCDSForwardEstimatorWS()),
		},
	}
}

// Fig8 reproduces Figure 8: forward node sets of the static vs the dynamic
// backbone.
func Fig8(d float64, ns []int, seed uint64, rule stats.StopRule) *Figure {
	return &Figure{
		ID:     figID("fig8", d),
		Title:  fmt.Sprintf("Forward node set, static vs dynamic backbone (d=%g)", d),
		XLabel: "n", YLabel: "forward nodes",
		Series: []Series{
			sweepWS("static-2.5hop", ns, d, seed, rule, StaticForwardEstimatorWS(coverage.Hop25)),
			sweepWS("static-3hop", ns, d, seed, rule, StaticForwardEstimatorWS(coverage.Hop3)),
			sweepWS("dynamic-2.5hop", ns, d, seed, rule, DynamicForwardEstimatorWS(coverage.Hop25)),
			sweepWS("dynamic-3hop", ns, d, seed, rule, DynamicForwardEstimatorWS(coverage.Hop3)),
		},
	}
}

// figID builds the canonical figure identifier: the paper shows (a) d=6
// and (b) d=18 panels.
func figID(base string, d float64) string {
	switch d {
	case 6:
		return base + "a"
	case 18:
		return base + "b"
	default:
		return fmt.Sprintf("%s-d%g", base, d)
	}
}
