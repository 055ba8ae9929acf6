package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// layer names a span's kind: a call into one of the program's layers, or
// the replication structure around those calls.
type layer uint8

const (
	lTopology layer = iota
	lCluster
	lCoverage
	lBackbone
	lMOCDS
	lDynInit
	lDynBcast
	lIdeal
	lTimed
	lMulti
	lWorkload
	lRouting
	lPoint     // one figure point: a stats replication loop
	lReplicate // one replicate: the estimator's pipeline
	nLayers
)

var layerNames = [nLayers]string{
	"topology", "cluster", "coverage", "backbone", "mocds", "dynamicb.init",
	"dynamicb.bcast", "broadcast.ideal", "broadcast.timed", "broadcast.multi",
	"workload", "routing", "stats.point", "experiment.replicate",
}

// allocLayers are the layers whose spans also record bytes allocated.
var allocLayers = [nLayers]bool{lTopology: true, lCluster: true, lCoverage: true, lDynInit: true, lDynBcast: true}

// count names a counter recorded at a layer boundary.
type count uint8

const (
	cAttempts count = iota // topology draws
	cAccepted              // draws that were connected
	cSkips                 // samples that exhausted their draw budget
	cHeads                 // clusterheads elected
	cBackboneNodes
	cMOCDSNodes
	cForwards // dynamic-backbone forward nodes
	cTransmissions
	cCopies // copies reaching a receiver under the multi-source MAC
	cFirst  // first deliveries among them
	cCollisions
	cFlows
	cRequests // route requests (discovery flows)
	cFound    // routes found
	cReps     // replicates observed
	cRepSkips // replicates skipped
	nCounts
)

// span is one timed call. parent indexes the enclosing span on the same
// track (-1 at the top); group ties every span of one figure point
// together across worker tracks; rep is the replicate index.
type span struct {
	start, end int64 // ns since the tracer's origin
	alloc      int64 // bytes allocated during the span (allocLayers only)
	parent     int32
	group      int32
	rep        int32
	layer      layer
}

// tracer owns the tracks of one traced pass. Each goroutine records on
// its own track, so recording takes no lock; tracks are registered once.
type tracer struct {
	t0     time.Time
	mu     sync.Mutex
	tracks []*track
	groups atomic.Int32
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// track returns a new track whose spans belong to group.
func (t *tracer) track(group int32) *track {
	k := &track{tr: t, group: group, ms: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}}
	t.mu.Lock()
	t.tracks = append(t.tracks, k)
	t.mu.Unlock()
	return k
}

// newGroup returns a fresh group id.
func (t *tracer) newGroup() int32 { return t.groups.Add(1) }

// track is one goroutine's span buffer and counters. A nil *track records
// nothing, so untraced code paths share the replay's call sites.
type track struct {
	tr     *tracer
	group  int32
	spans  []span
	open   []int32
	counts [nCounts]int64
	ms     []metrics.Sample
}

func (k *track) now() int64 { return int64(time.Since(k.tr.t0)) }

func (k *track) allocBytes() int64 {
	metrics.Read(k.ms)
	return int64(k.ms[0].Value.Uint64())
}

// begin opens a span of layer l for replicate rep.
func (k *track) begin(l layer, rep int) {
	if k == nil {
		return
	}
	s := span{layer: l, rep: int32(rep), group: k.group, parent: -1}
	if n := len(k.open); n > 0 {
		s.parent = k.open[n-1]
	}
	if allocLayers[l] {
		s.alloc = k.allocBytes()
	}
	s.start = k.now()
	k.spans = append(k.spans, s)
	k.open = append(k.open, int32(len(k.spans)-1))
}

// end closes the innermost open span.
func (k *track) end() {
	if k == nil {
		return
	}
	id := k.open[len(k.open)-1]
	k.open = k.open[:len(k.open)-1]
	s := &k.spans[id]
	s.end = k.now()
	if allocLayers[s.layer] {
		s.alloc = k.allocBytes() - s.alloc
	}
}

// add bumps a counter.
func (k *track) add(c count, v int) {
	if k != nil {
		k.counts[c] += int64(v)
	}
}

// interval is a closed time range in ns.
type interval struct{ lo, hi int64 }

// covered returns the length of the union of the intervals.
func covered(iv []interval) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i].lo < iv[j].lo })
	var total, lo, hi int64
	for i, x := range iv {
		if i == 0 || x.lo > hi {
			total += hi - lo
			lo, hi = x.lo, x.hi
		} else if x.hi > hi {
			hi = x.hi
		}
	}
	return total + hi - lo
}

// layers derives the per-layer figures from the spans: per layer its
// calls, busy time (summed span durations), self time (busy time minus
// the part its child spans cover) and allocation, plus the counters.
func (t *tracer) layers() map[string]float64 {
	var calls [nLayers]int64
	var busy, self, alloc [nLayers]int64
	var counts [nCounts]int64
	var repTotal, repCovered int64
	// Points' replicate spans live on worker tracks, so a point's self
	// time is computed over its group rather than its own track.
	pointSpans := map[int32][]interval{}
	groupReps := map[int32][]interval{}
	for _, k := range t.tracks {
		for c := range counts {
			counts[c] += k.counts[c]
		}
		children := make([][]interval, len(k.spans))
		for _, s := range k.spans {
			if s.parent >= 0 {
				children[s.parent] = append(children[s.parent], interval{s.start, s.end})
			}
		}
		for i, s := range k.spans {
			d := s.end - s.start
			calls[s.layer]++
			busy[s.layer] += d
			alloc[s.layer] += s.alloc
			switch s.layer {
			case lPoint:
				pointSpans[s.group] = append(pointSpans[s.group], interval{s.start, s.end})
			case lReplicate:
				groupReps[s.group] = append(groupReps[s.group], interval{s.start, s.end})
				c := covered(children[i])
				repTotal += d
				repCovered += c
				self[s.layer] += d - c
			default:
				self[s.layer] += d - covered(children[i])
			}
		}
	}
	for g, pts := range pointSpans {
		for _, p := range pts {
			self[lPoint] += p.hi - p.lo - covered(clip(groupReps[g], p))
		}
	}

	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	mib := func(b int64) float64 { return float64(b) / (1 << 20) }
	return map[string]float64{
		"topology.calls":        float64(calls[lTopology]),
		"topology.skips":        float64(counts[cSkips]),
		"topology.accept_ratio": ratio(counts[cAccepted], counts[cAttempts]),
		"topology.busy_s":       seconds(busy[lTopology]),
		"topology.alloc_mib":    mib(alloc[lTopology]),

		"cluster.calls":     float64(calls[lCluster]),
		"cluster.busy_s":    seconds(busy[lCluster]),
		"cluster.heads":     float64(counts[cHeads]),
		"cluster.alloc_mib": mib(alloc[lCluster]),

		"coverage.calls":     float64(calls[lCoverage]),
		"coverage.busy_s":    seconds(busy[lCoverage]),
		"coverage.alloc_mib": mib(alloc[lCoverage]),

		"backbone.calls":  float64(calls[lBackbone]),
		"backbone.busy_s": seconds(busy[lBackbone]),
		"backbone.nodes":  float64(counts[cBackboneNodes]),
		"mocds.calls":     float64(calls[lMOCDS]),
		"mocds.busy_s":    seconds(busy[lMOCDS]),
		"mocds.nodes":     float64(counts[cMOCDSNodes]),

		"dynamicb.calls":     float64(calls[lDynInit]),
		"dynamicb.init_s":    seconds(busy[lDynInit]),
		"dynamicb.bcast_s":   seconds(busy[lDynBcast]),
		"dynamicb.forwards":  float64(counts[cForwards]),
		"dynamicb.alloc_mib": mib(alloc[lDynInit] + alloc[lDynBcast]),

		"broadcast.multi_s":       seconds(busy[lMulti]),
		"broadcast.multi_calls":   float64(calls[lMulti]),
		"broadcast.transmissions": float64(counts[cTransmissions]),
		"broadcast.copies":        float64(counts[cCopies]),
		"broadcast.useful_ratio":  ratio(counts[cFirst], counts[cCopies]),
		"broadcast.collisions":    float64(counts[cCollisions]),
		"broadcast.ideal_s":       seconds(busy[lIdeal]),
		"broadcast.timed_s":       seconds(busy[lTimed]),

		"workload.flows":      float64(counts[cFlows]),
		"workload.self_s":     seconds(self[lWorkload]),
		"routing.calls":       float64(calls[lRouting]),
		"routing.busy_s":      seconds(busy[lRouting]),
		"routing.found_ratio": ratio(counts[cFound], counts[cRequests]),

		"stats.reps":   float64(counts[cReps]),
		"stats.skips":  float64(counts[cRepSkips]),
		"stats.self_s": seconds(self[lPoint]),

		"trace.attributed_ratio": ratio(repCovered, repTotal),
	}
}

// clip returns the intervals cut to the window w.
func clip(iv []interval, w interval) []interval {
	out := make([]interval, 0, len(iv))
	for _, x := range iv {
		lo, hi := max(x.lo, w.lo), min(x.hi, w.hi)
		if lo < hi {
			out = append(out, interval{lo, hi})
		}
	}
	return out
}

// writeSpans writes every span as one JSON line.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for ti, k := range t.tracks {
		for _, s := range k.spans {
			fmt.Fprintf(w, `{"track":%d,"name":%q,"start_ns":%d,"end_ns":%d,"parent":%d,"group":%d,"rep":%d,"alloc_bytes":%d}`+"\n",
				ti, layerNames[s.layer], s.start, s.end, s.parent, s.group, s.rep, s.alloc)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
