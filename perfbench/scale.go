package main

import (
	"clustercast/internal/backbone"
	"clustercast/internal/cluster"
	"clustercast/internal/coverage"
	"clustercast/internal/experiment"
	"clustercast/internal/graph"
	"clustercast/internal/topology"
)

// scaleStages are cmd/scale's stages, in its order.
var scaleStages = []string{"static25", "mocds", "dynamic25"}

// scaleRun holds one scale pass's workspace and sampler.
type scaleRun struct {
	p  *pass
	sc experiment.Scenario
	w  *worker // the replay's sampler; nil untraced
	ws *experiment.Workspace
}

// scaleJob runs cmd/scale's static25, mocds and dynamic25 stages with its
// default sequential settings. Set-up runs each stage once on a warm-up
// network, growing every workspace to full size; the timed replicates
// follow.
func scaleJob(p *pass) {
	n, d, reps := 100000, 18.0, 4
	if p.cfg.tiny {
		n, reps = 200, 2
	}
	s := &scaleRun{p: p, sc: experiment.DefaultScenario(n, d, p.cfg.seed), ws: experiment.NewWorkspace()}
	if p.tr != nil {
		s.w = &worker{ws: s.ws}
	}
	for _, name := range scaleStages {
		s.replicate(name, "scale-warmup", 0, false)
	}
	if s.w != nil {
		// Spans start after set-up: the warm-up is not a timed replicate.
		s.w.k = p.tr.track(p.tr.newGroup())
	}
	p.ready()
	p.out.Results = map[string][]int{}
	for _, name := range scaleStages {
		res := make([]int, 0, reps)
		for rep := 0; rep < reps; rep++ {
			res = append(res, s.replicate(name, "scale-"+name, rep, true))
		}
		p.out.Results[name] = res
		p.out.Digests[name] = intsDigest(res)
	}
}

// replicate samples one network and runs a stage on it, returning the
// stage's result: backbone size or forward-node count. In the traced
// replay it then checks the paper's guarantees on the result, outside
// the replicate's span.
func (s *scaleRun) replicate(stage, label string, rep int, timed bool) int {
	if timed {
		s.p.out.Ops++
	}
	var k *track
	if s.w != nil {
		k = s.w.k
	}
	k.begin(lReplicate, rep)
	nw, cl, v, reached := s.stage(k, stage, label, rep)
	k.end()
	if nw == nil {
		s.p.fail("%s rep %d: no connected topology sampled", stage, rep)
		return 0
	}
	if k != nil {
		s.check(nw.G, cl, stage, rep, v, reached)
	}
	return v
}

// stage runs one replicate of a stage: the sample, the election and the
// stage's kernel. reached is the dynamic broadcast's receiver count.
func (s *scaleRun) stage(k *track, stage, label string, rep int) (nw *topology.Network, cl *cluster.Clustering, v, reached int) {
	ws := s.ws
	if s.w == nil {
		nw, _, _ = s.sc.SampleWS(ws, label, rep)
	} else {
		var err error
		if nw, _, err = s.w.sample(s.sc, label, rep); err != nil {
			s.p.fail("%s rep %d: %v", stage, rep, err)
		}
	}
	if nw == nil {
		return nil, nil, 0, 0
	}
	if s.w == nil {
		cl = ws.Elect(nw.G)
	} else {
		cl = s.w.elect(nw.G, rep)
	}
	switch stage {
	case "static25":
		digest(k, ws, nw.G, cl, coverage.Hop25, rep)
		k.begin(lBackbone, rep)
		v = ws.Backbone.StaticSize(&ws.Builder, cl, backbone.Options{})
		k.end()
		k.add(cBackboneNodes, v)
	case "mocds":
		digest(k, ws, nw.G, cl, coverage.Hop3, rep)
		k.begin(lMOCDS, rep)
		v = ws.MOCDS.SizeFrom(&ws.Builder, cl)
		k.end()
		k.add(cMOCDSNodes, v)
	default: // dynamic25
		k.begin(lDynInit, rep)
		proto := ws.Dynamic.NewWith(nw.G, cl, coverage.Hop25)
		k.end()
		k.begin(lDynBcast, rep)
		res := proto.BroadcastWS(s.sc.N / 2)
		k.end()
		v, reached = res.ForwardCount(), res.ReceivedCount()
		k.add(cForwards, v)
	}
	return nw, cl, v, reached
}

// check verifies the paper's guarantees on one replicate: the
// clusterheads form an independent dominating set, the static and MO_CDS
// backbones are connected dominating sets of the reported size (Theorem
// 1), and the SD-CDS broadcast on the ideal radio reaches every node
// (Theorem 2).
func (s *scaleRun) check(g *graph.Graph, cl *cluster.Clustering, stage string, rep, v, reached int) {
	heads := graph.NewBitset(g.N())
	for _, h := range cl.Heads {
		heads.Add(h)
	}
	if !g.IsIndependentSetBits(heads) || !g.IsDominatingSetBits(heads) {
		s.p.fail("%s rep %d: clusterheads are not an independent dominating set", stage, rep)
	}
	var nodes *graph.Bitset
	switch stage {
	case "static25":
		nodes = s.ws.Backbone.StaticNodes(&s.ws.Builder, cl, backbone.Options{})
	case "mocds":
		nodes = s.ws.MOCDS.NodesFrom(&s.ws.Builder, cl)
	default:
		if reached != g.N() {
			s.p.fail("%s rep %d: SD-CDS broadcast reached %d of %d nodes", stage, rep, reached, g.N())
		}
		return
	}
	if nodes.Count() != v {
		s.p.fail("%s rep %d: backbone has %d nodes, stage reported %d", stage, rep, nodes.Count(), v)
	}
	if !g.IsCDSBits(nodes) {
		s.p.fail("%s rep %d: backbone is not a connected dominating set", stage, rep)
	}
}

// digest runs the coverage digest the experiment workspace dispatches to.
func digest(k *track, ws *experiment.Workspace, g *graph.Graph, cl *cluster.Clustering, mode coverage.Mode, rep int) {
	k.begin(lCoverage, rep)
	ws.Digest(g, cl, mode)
	k.end()
}
