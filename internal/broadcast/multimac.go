package broadcast

import (
	"slices"

	"clustercast/internal/des"
	"clustercast/internal/graph"
	"clustercast/internal/obs"
	"clustercast/internal/rng"
)

// Multi-source MAC metrics, folded once per multi-source run.
var (
	mMultiRuns       = obs.NewCounter("mac.multi_runs")
	mMultiFlows      = obs.NewCounter("mac.multi_flows")
	mCrossCollisions = obs.NewCounter("mac.cross_collisions")
)

// MultiFlow is one broadcast of a multi-source traffic workload: a source
// injecting a packet at an absolute slot, carrying its own protocol
// instance and its own jitter seed.
//
// Proto must be private to the flow when the protocol keeps per-broadcast
// state (the engine interleaves OnReceive callbacks of concurrently active
// flows); stateless protocols (Flooding, StaticCDS, Gossip) and the
// non-reusing dynamic-backbone protocol may be shared across flows.
type MultiFlow struct {
	// Src is the broadcast source.
	Src int
	// Dst, when >= 0, names the node whose first decode the engine
	// timestamps (FlowResult.DstSlot) — the RREQ destination of a route
	// discovery. -1 for a plain broadcast.
	Dst int
	// Start is the absolute slot the source transmits in.
	Start int
	// Seed drives this flow's jitter draws. In the zero-contention limit
	// (no other flow shares a slot with this one) the flow's result is
	// bit-identical to RunMAC(g, Src, Proto, MACOptions{Jitter, Seed}).
	Seed uint64
	// Proto decides forwarding for this flow's packet.
	Proto Protocol
}

// FlowResult is one flow's outcome within a multi-source run. Latency is
// relative to the flow's Start slot, so in the zero-contention limit the
// embedded CollisionResult equals the flow's single-source RunMAC result
// field for field.
type FlowResult struct {
	CollisionResult
	// Start echoes the flow's injection slot.
	Start int
	// DstSlot is the absolute slot at which the flow's Dst first decoded
	// the packet (-1 when the flow has no Dst or it was never reached;
	// Start when Dst == Src).
	DstSlot int
}

// MultiResult aggregates one multi-source slotted-MAC run.
type MultiResult struct {
	// Flows holds the per-flow results, index-aligned with the input.
	Flows []*FlowResult
	// SharedCollisions counts receiver-slot collision events on the shared
	// medium, each counted once regardless of how many flows collided.
	SharedCollisions int
	// CrossCollisions counts the subset of SharedCollisions whose destroyed
	// copies came from at least two distinct flows — the inter-flow
	// contention a single-source run can never exhibit.
	CrossCollisions int
	// Transmissions counts transmissions that went on the air across all
	// flows (crashed senders excluded).
	Transmissions int
	// Makespan is the last delivery slot of the run (absolute; 0 when
	// nothing was delivered beyond the sources).
	Makespan int
}

// DeliveredTotal sums the nodes reached across all flows (sources
// included), the numerator of the workload's aggregate delivery ratio.
func (m *MultiResult) DeliveredTotal() int {
	total := 0
	for _, f := range m.Flows {
		total += len(f.Received)
	}
	return total
}

// DeliveryRatio returns the mean per-flow delivery ratio over n nodes.
func (m *MultiResult) DeliveryRatio(n int) float64 {
	if len(m.Flows) == 0 || n == 0 {
		return 0
	}
	sum := 0.0
	for _, f := range m.Flows {
		sum += f.DeliveryRatio(n)
	}
	return sum / float64(len(m.Flows))
}

// multiTx is one queued transmission of the multi-source engine.
type multiTx struct {
	flow    int32
	sender  int32
	trigger int32 // upstream sender that caused this relay (-1: source)
	pkt     Packet
}

// RunMACMulti simulates concurrently active broadcasts under the slotted
// collision model: transmissions of *all* flows scheduled in the same slot
// contend, and a receiver that hears more than one — regardless of which
// flows they belong to — decodes none. Per-flow forwarding state
// (reception, duplicates, acted payloads, jitter stream) is independent,
// so with disjoint slot schedules the run degenerates to len(flows)
// serialized single-source RunMAC runs, bit for bit (gated by
// TestMultiMACZeroContentionEquivalence).
//
// opt.Seed is unused: each flow's jitter stream derives from its own Seed,
// which is what makes a flow's randomness independent of which other flows
// share the air. opt.Tracer and opt.Faults apply to the shared medium
// exactly as in RunMAC. It allocates a private workspace per call;
// replicate loops may hold a MultiMACWorkspace instead.
func RunMACMulti(g *graph.Graph, flows []MultiFlow, opt MACOptions) *MultiResult {
	var mw MultiMACWorkspace
	return mw.Run(g, flows, opt)
}

// commit resolves one (receiver, slot) cell: the collision rule first,
// then delivery/duplicate dispatch into the decoded copy's flow. The
// slot-map reference in the package tests calls it too, so the two
// engines' per-receiver semantics cannot drift.
func (m *MultiResult) commit(g *graph.Graph, flows []MultiFlow, batch []multiTx, t, v int,
	copies []int32, tr *obs.Tracer, draw func(int32) int,
	mark func(int32, int, Packet), actedOn func(int32, int, Packet) bool,
	schedule func(int, multiTx)) {
	if len(copies) > 1 {
		m.SharedCollisions++
		// Attribute the destroyed copies flow by flow: each involved flow
		// records one collision event plus its own lost copies, exactly
		// what its single-source run would have recorded had the copies
		// all been its own.
		first := batch[copies[0]].flow
		cross := false
		for ci, bi := range copies {
			fi := batch[bi].flow
			m.Flows[fi].LostCopies++
			if fi != first {
				cross = true
			}
			newFlow := true
			for _, bj := range copies[:ci] {
				if batch[bj].flow == fi {
					newFlow = false
					break
				}
			}
			if newFlow {
				m.Flows[fi].Collisions++
			}
		}
		if cross {
			m.CrossCollisions++
		}
		if tr != nil {
			tr.Collision(t+1, v)
		}
		return
	}
	x := batch[copies[0]]
	fi := x.flow
	fr := m.Flows[fi]
	f := &flows[fi]
	var forward bool
	var out Packet
	if !fr.Received[v] {
		fr.Received[v] = true
		fr.Parent[v] = int(x.sender)
		if rel := t + 1 - f.Start; rel > fr.Latency {
			fr.Latency = rel
		}
		if t+1 > m.Makespan {
			m.Makespan = t + 1
		}
		if v == f.Dst && fr.DstSlot < 0 {
			fr.DstSlot = t + 1
		}
		if tr != nil {
			tr.Deliver(t+1, v, int(x.sender))
		}
		forward, out = f.Proto.OnReceive(v, int(x.sender), x.pkt)
	} else {
		fr.Duplicates++
		if tr != nil {
			tr.Duplicate(t+1, v, int(x.sender))
		}
		if actedOn(fi, v, x.pkt) {
			return
		}
		forward, out = f.Proto.OnDuplicate(v, int(x.sender), x.pkt)
	}
	if forward {
		fr.Forwarders[v] = true
		mark(fi, v, x.pkt)
		mark(fi, v, out)
		schedule(t+1+draw(fi), multiTx{flow: fi, sender: int32(v), trigger: x.sender, pkt: out})
	}
}

// fold records the run's totals in the metrics registry: the broadcast.*
// and mac.* totals a serialized sequence of single-source runs would have
// folded, plus the multi-source-only counters.
func (m *MultiResult) fold() {
	deliveries, duplicates, collisions, lost := 0, 0, 0, 0
	for _, f := range m.Flows {
		deliveries += len(f.Received) - 1
		duplicates += f.Duplicates
		collisions += f.Collisions
		lost += f.LostCopies
	}
	mRuns.Add(int64(len(m.Flows)))
	mTransmissions.Add(int64(m.Transmissions))
	mDeliveries.Add(int64(deliveries))
	mDuplicates.Add(int64(duplicates))
	mMACCollisions.Add(int64(collisions))
	mMACLostCopies.Add(int64(lost))
	mMultiRuns.Inc()
	mMultiFlows.Add(int64(len(m.Flows)))
	mCrossCollisions.Add(int64(m.CrossCollisions))
}

// MultiMACWorkspace owns the state of the multi-source MAC engine.
// Pending transmissions live in internal/des wheel buckets (flow starts
// beyond the jitter window park in the wheel's far heap and promote in
// push order, so a slot's batch order is its push order); receiver-side
// resolution keeps per-slot epoch-stamped *copy lists* rather than the
// single-source engine's (count, first) pair, because cross-flow
// collision attribution needs to know which flow owned each destroyed
// copy. Per-flow result state stays map-based, and the per-receiver
// commit is shared with the slot-map reference in the package tests
// (gated by TestMultiMACScalarDESEquivalence and the fuzz target).
//
// Not safe for concurrent use; give each worker its own.
type MultiMACWorkspace struct {
	wheel des.Wheel[multiTx]

	// Per-slot epoch-stamped receiver state.
	slotEpoch uint32
	stamp     []uint32
	copies    [][]int32 // batch indices heard by v this slot (append order)
	touched   []int32   // receivers touched this slot (commit order after sort)

	jitters []rng.Stream // one per flow, reseeded per run
	acted   []map[int]map[Packet]bool
}

// NewMultiMACWorkspace returns an empty workspace; buffers grow on first
// use.
func NewMultiMACWorkspace() *MultiMACWorkspace { return &MultiMACWorkspace{} }

// ensure sizes the per-receiver arrays and resets the per-flow state.
func (mw *MultiMACWorkspace) ensure(n, nflows int) {
	if cap(mw.stamp) < n {
		mw.stamp = make([]uint32, n)
		mw.copies = make([][]int32, n)
		mw.slotEpoch = 0
	}
	mw.stamp = mw.stamp[:n]
	mw.copies = mw.copies[:n]
	if cap(mw.jitters) < nflows {
		mw.jitters = make([]rng.Stream, nflows)
		mw.acted = make([]map[int]map[Packet]bool, nflows)
	}
	mw.jitters = mw.jitters[:nflows]
	mw.acted = mw.acted[:nflows]
}

// bumpSlot advances the per-slot receiver stamp (wrap-flushing).
func (mw *MultiMACWorkspace) bumpSlot() {
	mw.slotEpoch++
	if mw.slotEpoch == 0 {
		s := mw.stamp[:cap(mw.stamp)]
		for i := range s {
			s[i] = 0
		}
		mw.slotEpoch = 1
	}
}

// hear records one copy of batch index bi reaching receiver v this slot,
// returning true when v is newly touched.
func (mw *MultiMACWorkspace) hear(v int, bi int32) bool {
	fresh := mw.stamp[v] != mw.slotEpoch
	if fresh {
		mw.stamp[v] = mw.slotEpoch
		mw.copies[v] = mw.copies[v][:0]
	}
	mw.copies[v] = append(mw.copies[v], bi)
	return fresh
}

// Run simulates concurrently active broadcasts on the workspace (see
// RunMACMulti; opt.Seed is ignored for the same reason).
func (mw *MultiMACWorkspace) Run(g *graph.Graph, flows []MultiFlow, opt MACOptions) *MultiResult {
	res := &MultiResult{Flows: make([]*FlowResult, len(flows))}
	if len(flows) == 0 {
		return res
	}
	mw.ensure(g.N(), len(flows))

	draw := func(fi int32) int {
		if opt.Jitter <= 0 {
			return 0
		}
		return mw.jitters[fi].Intn(opt.Jitter + 1)
	}
	mark := func(fi int32, v int, pkt Packet) {
		m := mw.acted[fi][v]
		if m == nil {
			m = make(map[Packet]bool)
			mw.acted[fi][v] = m
		}
		m[pkt] = true
	}

	tr := opt.Tracer
	if tr != nil {
		tr.SetTime(0)
	}
	w := &mw.wheel
	w.Reset(opt.Jitter + 2) // forwards land in [t+1, t+1+Jitter]
	for i := range flows {
		f := &flows[i]
		fr := &FlowResult{Start: f.Start, DstSlot: -1}
		fr.Result = Result{
			Source:     f.Src,
			Forwarders: map[int]bool{f.Src: true},
			Received:   map[int]bool{f.Src: true},
			Parent:     make(map[int]int),
		}
		if f.Dst == f.Src {
			fr.DstSlot = f.Start
		}
		res.Flows[i] = fr
		mw.jitters[i].SeedLabeled(f.Seed, "mac-jitter")
		mw.acted[i] = make(map[int]map[Packet]bool)
		start := f.Proto.Start(f.Src)
		mark(int32(i), f.Src, start)
		w.Push(f.Start, multiTx{flow: int32(i), sender: int32(f.Src), trigger: -1, pkt: start})
	}

	fo := opt.Faults
	for w.Len() > 0 {
		t := w.OpenSlot()
		batch := w.Bucket() // MAC never pushes into its own slot
		if fo != nil {
			// Crashed forwarders stay silent; their slot reservation lapses.
			live := batch[:0]
			for _, x := range batch {
				if fo.NodeUp(int(x.sender), t) {
					live = append(live, x)
				}
			}
			batch = live
		}
		if tr != nil {
			tr.SetTime(t + 1)
			for _, x := range batch {
				tr.Send(t, int(x.sender), int(x.trigger))
			}
		}
		res.Transmissions += len(batch)

		// Receiver-side resolution over the shared medium: each receiver's
		// copy list in batch order.
		mw.bumpSlot()
		mw.touched = mw.touched[:0]
		for bi, x := range batch {
			for _, v := range g.Neighbors(int(x.sender)) {
				if fo != nil && (!fo.NodeUp(v, t+1) || !fo.LinkUp(int(x.sender), v, t+1) ||
					fo.CopyLost(int(x.sender), v, t+1)) {
					continue // the copy faded before reaching v
				}
				if mw.hear(v, int32(bi)) {
					mw.touched = append(mw.touched, int32(v))
				}
			}
		}
		slices.Sort(mw.touched)

		// Commit: receivers in ascending ID order through the shared
		// per-receiver resolution.
		for _, v32 := range mw.touched {
			v := int(v32)
			res.commit(g, flows, batch, t, v, mw.copies[v], tr, draw,
				mark,
				func(fi int32, node int, pkt Packet) bool { return mw.acted[fi][node][pkt] },
				func(slot int, x multiTx) { w.Push(slot, x) })
		}
		w.CloseSlot()
	}
	w.FoldStats()
	for i := range mw.acted {
		mw.acted[i] = nil // release per-run maps; sizes vary run to run
	}

	res.fold()
	return res
}
