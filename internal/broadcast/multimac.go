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
// push order, so a slot's batch order is its push order). Per-flow
// forwarding state is dense and flow-major: one 16-byte cell per
// (flow, node), indexed fi*n+v, holding run-epoch received/forwarded
// stamps, the parent, and an index into a run-scoped pool of
// acted-payload lists; per-flow counters and jitter streams live in a
// reused per-flow slice. Receiver-side resolution keeps per-slot
// epoch-stamped *copy lists* rather than the single-source engine's
// (count, first) pair, because cross-flow collision attribution needs to
// know which flow owned each destroyed copy. The map-based MultiResult is
// built once, at the end of a run. The slot-map reference it must replay
// bit for bit lives in oracle_test.go (gated by
// TestMultiMACScalarDESEquivalence and the fuzz target).
//
// Not safe for concurrent use; give each worker its own.
type MultiMACWorkspace struct {
	wheel des.Wheel[multiTx]

	// Per-run epoch-stamped (flow, node) state.
	epoch  uint32
	n      int
	cells  []multiCell
	acted  [][]Packet // run-scoped pool, indexed by multiCell.acted
	nActed int32
	flows  []multiFlowState

	// Per-slot epoch-stamped receiver state.
	slotEpoch uint32
	stamp     []uint32
	copies    [][]int32 // batch indices heard by v this slot (append order)
	touched   []int32   // receivers touched this slot (commit order after sort)
}

// multiCell is one (flow, node) cell of the dense per-flow state.
type multiCell struct {
	received  uint32 // run epoch at which the node first decoded the flow
	forwarded uint32 // run epoch at which the node first forwarded it
	parent    int32  // sender of the first decoded copy
	acted     int32  // acted-payload list; valid when forwarded is current
}

// multiFlowState is one flow's running counters and jitter stream.
type multiFlowState struct {
	jitter              rng.Stream
	received, forwarded int
	latency, duplicates int
	collisions, lost    int
	dstSlot             int
}

// NewMultiMACWorkspace returns an empty workspace; buffers grow on first
// use.
func NewMultiMACWorkspace() *MultiMACWorkspace { return &MultiMACWorkspace{} }

// ensure sizes the per-receiver and per-(flow, node) arrays and bumps the
// run epoch (wrap-flushing stale stamps).
func (mw *MultiMACWorkspace) ensure(n, nflows int) {
	if cap(mw.stamp) < n {
		mw.stamp = make([]uint32, n)
		mw.copies = make([][]int32, n)
		mw.slotEpoch = 0
	}
	mw.stamp = mw.stamp[:n]
	mw.copies = mw.copies[:n]
	if cap(mw.cells) < n*nflows {
		mw.cells = make([]multiCell, n*nflows)
		mw.epoch = 0
	}
	mw.cells = mw.cells[:n*nflows]
	mw.n = n
	if cap(mw.flows) < nflows {
		mw.flows = make([]multiFlowState, nflows)
	}
	mw.flows = mw.flows[:nflows]
	mw.nActed = 0
	mw.epoch++
	if mw.epoch == 0 {
		clear(mw.cells[:cap(mw.cells)])
		mw.epoch = 1
	}
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

// forward stamps c as a forwarder of flow fs, handing it an empty
// acted-payload list from the pool on its first forward this run.
func (mw *MultiMACWorkspace) forward(c *multiCell, fs *multiFlowState) {
	if c.forwarded == mw.epoch {
		return
	}
	c.forwarded = mw.epoch
	fs.forwarded++
	c.acted = mw.nActed
	mw.nActed++
	if int(c.acted) == len(mw.acted) {
		mw.acted = append(mw.acted, nil)
	}
	mw.acted[c.acted] = mw.acted[c.acted][:0]
}

// markActed / actedOn mirror MACWorkspace's per-node payload lists, per
// (flow, node) cell.
func (mw *MultiMACWorkspace) markActed(c *multiCell, pkt Packet) {
	if !mw.actedOn(c, pkt) {
		mw.acted[c.acted] = append(mw.acted[c.acted], pkt)
	}
}

func (mw *MultiMACWorkspace) actedOn(c *multiCell, pkt Packet) bool {
	if c.forwarded != mw.epoch {
		return false
	}
	for _, q := range mw.acted[c.acted] {
		if q == pkt {
			return true
		}
	}
	return false
}

// commit resolves receiver v's copies of slot t: the collision rule
// first, then delivery/duplicate dispatch into the decoded copy's flow.
func (mw *MultiMACWorkspace) commit(res *MultiResult, flows []MultiFlow, batch []multiTx, t, v, jitter int, tr *obs.Tracer) {
	copies := mw.copies[v]
	if len(copies) > 1 {
		res.SharedCollisions++
		// Attribute the destroyed copies flow by flow: each involved flow
		// records one collision event plus its own lost copies, exactly
		// what its single-source run would have recorded had the copies
		// all been its own.
		first := batch[copies[0]].flow
		cross := false
		for ci, bi := range copies {
			fi := batch[bi].flow
			mw.flows[fi].lost++
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
				mw.flows[fi].collisions++
			}
		}
		if cross {
			res.CrossCollisions++
		}
		if tr != nil {
			tr.Collision(t+1, v)
		}
		return
	}
	x := batch[copies[0]]
	fi := int(x.flow)
	f, fs, c := &flows[fi], &mw.flows[fi], &mw.cells[fi*mw.n+v]
	var forward bool
	var out Packet
	if c.received != mw.epoch {
		c.received = mw.epoch
		c.parent = x.sender
		fs.received++
		if rel := t + 1 - f.Start; rel > fs.latency {
			fs.latency = rel
		}
		if t+1 > res.Makespan {
			res.Makespan = t + 1
		}
		if v == f.Dst && fs.dstSlot < 0 {
			fs.dstSlot = t + 1
		}
		if tr != nil {
			tr.Deliver(t+1, v, int(x.sender))
		}
		forward, out = f.Proto.OnReceive(v, int(x.sender), x.pkt)
	} else {
		fs.duplicates++
		if tr != nil {
			tr.Duplicate(t+1, v, int(x.sender))
		}
		if mw.actedOn(c, x.pkt) {
			return
		}
		forward, out = f.Proto.OnDuplicate(v, int(x.sender), x.pkt)
	}
	if forward {
		mw.forward(c, fs)
		mw.markActed(c, x.pkt)
		mw.markActed(c, out)
		delay := 0
		if jitter > 0 {
			delay = fs.jitter.Intn(jitter + 1)
		}
		mw.wheel.Push(t+1+delay, multiTx{flow: x.flow, sender: int32(v), trigger: x.sender, pkt: out})
	}
}

// materialize builds the map-based per-flow results from the dense
// state, maps presized from the per-flow counters.
func (mw *MultiMACWorkspace) materialize(res *MultiResult, flows []MultiFlow) {
	n, epoch := mw.n, mw.epoch
	frs := make([]FlowResult, len(flows))
	for fi := range flows {
		f, fs, fr := &flows[fi], &mw.flows[fi], &frs[fi]
		fr.Start, fr.DstSlot = f.Start, fs.dstSlot
		fr.Collisions, fr.LostCopies = fs.collisions, fs.lost
		fr.Result = Result{
			Source:     f.Src,
			Latency:    fs.latency,
			Duplicates: fs.duplicates,
			Forwarders: make(map[int]bool, fs.forwarded),
			Received:   make(map[int]bool, fs.received),
			Parent:     make(map[int]int, fs.received-1),
		}
		for v, c := range mw.cells[fi*n : (fi+1)*n] {
			if c.received == epoch {
				fr.Received[v] = true
				if v != f.Src {
					fr.Parent[v] = int(c.parent)
				}
			}
			if c.forwarded == epoch {
				fr.Forwarders[v] = true
			}
		}
		res.Flows[fi] = fr
	}
}

// Run simulates concurrently active broadcasts on the workspace (see
// RunMACMulti; opt.Seed is ignored for the same reason).
func (mw *MultiMACWorkspace) Run(g *graph.Graph, flows []MultiFlow, opt MACOptions) *MultiResult {
	res := &MultiResult{Flows: make([]*FlowResult, len(flows))}
	if len(flows) == 0 {
		return res
	}
	n := g.N()
	mw.ensure(n, len(flows))

	tr := opt.Tracer
	if tr != nil {
		tr.SetTime(0)
	}
	w := &mw.wheel
	w.Reset(opt.Jitter + 2) // forwards land in [t+1, t+1+Jitter]
	for i := range flows {
		f, fs := &flows[i], &mw.flows[i]
		*fs = multiFlowState{received: 1, dstSlot: -1}
		if f.Dst == f.Src {
			fs.dstSlot = f.Start
		}
		fs.jitter.SeedLabeled(f.Seed, "mac-jitter")
		c := &mw.cells[i*n+f.Src]
		c.received = mw.epoch
		mw.forward(c, fs)
		start := f.Proto.Start(f.Src)
		mw.markActed(c, start)
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

		// Commit: receivers in ascending ID order.
		for _, v := range mw.touched {
			mw.commit(res, flows, batch, t, int(v), opt.Jitter, tr)
		}
		w.CloseSlot()
	}
	w.FoldStats()

	mw.materialize(res, flows)
	res.fold()
	return res
}
