package broadcast

import (
	"container/heap"
	"sort"

	"clustercast/internal/graph"
	"clustercast/internal/obs"
	"clustercast/internal/rng"
)

// The scalar reference engines. Each production engine (MACWorkspace,
// MultiMACWorkspace, TimedWorkspace) runs on the internal/des event
// calendar; these are the straightforward map-and-heap loops it must
// replay bit for bit — results, protocol callbacks, randomness
// consumption, trace stream and metric totals. They live only in tests,
// as the oracles of the equivalence suites and fuzz targets.

// runMACScalar is the slot-map reference of RunMAC.
func runMACScalar(g *graph.Graph, source int, p Protocol, opt MACOptions) *CollisionResult {
	res := &CollisionResult{Result: Result{
		Source:     source,
		Forwarders: make(map[int]bool),
		Received:   make(map[int]bool),
		Parent:     make(map[int]int),
	}}
	res.Received[source] = true
	res.Forwarders[source] = true

	jitter := rng.NewLabeled(opt.Seed, "mac-jitter")
	draw := func() int {
		if opt.Jitter <= 0 {
			return 0
		}
		return jitter.Intn(opt.Jitter + 1)
	}

	acted := make(map[int]map[Packet]bool)
	mark := func(v int, pkt Packet) {
		m := acted[v]
		if m == nil {
			m = make(map[Packet]bool)
			acted[v] = m
		}
		m[pkt] = true
	}

	type tx struct {
		sender  int
		trigger int // upstream sender that caused this relay (-1: source)
		pkt     Packet
	}
	// slots[t] holds the transmissions scheduled for slot t. occ is a
	// min-heap of the occupied slot numbers, pushed once when a slot gains
	// its first transmission, so the loop jumps between occupied slots
	// instead of scanning every empty slot of the jitter window — with a
	// large Jitter and a thinned forwarder set (gossip tails, faults) most
	// slots are empty and the scan is pure waste. All pushes land strictly
	// after the slot being drained, so the popped sequence is exactly the
	// ascending occupied subsequence the scalar scan visited.
	slots := map[int][]tx{}
	var occ []int
	schedule := func(slot int, x tx) {
		if len(slots[slot]) == 0 {
			occ = append(occ, slot)
			for i := len(occ) - 1; i > 0; { // sift up
				p := (i - 1) / 2
				if occ[p] <= occ[i] {
					break
				}
				occ[p], occ[i] = occ[i], occ[p]
				i = p
			}
		}
		slots[slot] = append(slots[slot], x)
	}
	popSlot := func() int {
		t := occ[0]
		last := len(occ) - 1
		occ[0] = occ[last]
		occ = occ[:last]
		for i := 0; ; { // sift down
			c := 2*i + 1
			if c >= last {
				break
			}
			if c+1 < last && occ[c+1] < occ[c] {
				c++
			}
			if occ[i] <= occ[c] {
				break
			}
			occ[i], occ[c] = occ[c], occ[i]
			i = c
		}
		return t
	}
	tr := opt.Tracer
	if tr != nil {
		tr.SetTime(0)
	}
	start := p.Start(source)
	mark(source, start)
	schedule(0, tx{source, -1, start})
	transmissions := 0

	fo := opt.Faults
	for len(occ) > 0 {
		t := popSlot()
		batch := slots[t]
		delete(slots, t)
		if fo != nil {
			// Crashed forwarders stay silent; their slot reservation lapses.
			live := batch[:0]
			for _, x := range batch {
				if fo.NodeUp(x.sender, t) {
					live = append(live, x)
				}
			}
			batch = live
		}
		if tr != nil {
			tr.SetTime(t + 1)
			for _, x := range batch {
				tr.Send(t, x.sender, x.trigger)
			}
		}
		transmissions += len(batch)
		// Receiver-side resolution: count transmitting neighbors per node.
		heardBy := map[int][]tx{}
		for _, x := range batch {
			for _, v := range g.Neighbors(x.sender) {
				if fo != nil && (!fo.NodeUp(v, t+1) || !fo.LinkUp(x.sender, v, t+1) ||
					fo.CopyLost(x.sender, v, t+1)) {
					continue // the copy faded before reaching v
				}
				heardBy[v] = append(heardBy[v], x)
			}
		}
		// Receivers process in ascending order for determinism (protocol
		// state mutations must not depend on map iteration order).
		receivers := make([]int, 0, len(heardBy))
		for v := range heardBy {
			receivers = append(receivers, v)
		}
		sort.Ints(receivers)
		for _, v := range receivers {
			copies := heardBy[v]
			if len(copies) > 1 {
				res.Collisions++
				res.LostCopies += len(copies)
				if tr != nil {
					tr.Collision(t+1, v)
				}
				continue // all copies destroyed at this receiver
			}
			x := copies[0]
			var forward bool
			var out Packet
			if !res.Received[v] {
				res.Received[v] = true
				res.Parent[v] = x.sender
				if t+1 > res.Latency {
					res.Latency = t + 1
				}
				if tr != nil {
					tr.Deliver(t+1, v, x.sender)
				}
				forward, out = p.OnReceive(v, x.sender, x.pkt)
			} else {
				res.Duplicates++
				if tr != nil {
					tr.Duplicate(t+1, v, x.sender)
				}
				if acted[v][x.pkt] {
					continue
				}
				forward, out = p.OnDuplicate(v, x.sender, x.pkt)
			}
			if forward {
				res.Forwarders[v] = true
				mark(v, x.pkt)
				mark(v, out)
				schedule(t+1+draw(), tx{v, x.sender, out})
			}
		}
	}
	mRuns.Inc()
	mTransmissions.Add(int64(transmissions))
	mDeliveries.Add(int64(len(res.Received) - 1))
	mDuplicates.Add(int64(res.Duplicates))
	mMACCollisions.Add(int64(res.Collisions))
	mMACLostCopies.Add(int64(res.LostCopies))
	return res
}

// runMACMultiScalar is the slot-map reference of RunMACMulti: map-based
// per-flow state and acted-payload sets, resolved receiver by receiver
// through MultiResult.commit below. It shares only fold, a pure function
// of the compared result, with the production engine.
func runMACMultiScalar(g *graph.Graph, flows []MultiFlow, opt MACOptions) *MultiResult {
	res := &MultiResult{Flows: make([]*FlowResult, len(flows))}
	if len(flows) == 0 {
		return res
	}

	jitters := make([]rng.Stream, len(flows))
	draw := func(fi int32) int {
		if opt.Jitter <= 0 {
			return 0
		}
		return jitters[fi].Intn(opt.Jitter + 1)
	}

	// Per-flow acted-payload sets, exactly RunMAC's per-node bookkeeping
	// lifted to (flow, node).
	acted := make([]map[int]map[Packet]bool, len(flows))
	mark := func(fi int32, v int, pkt Packet) {
		m := acted[fi][v]
		if m == nil {
			m = make(map[Packet]bool)
			acted[fi][v] = m
		}
		m[pkt] = true
	}

	// slots[t] holds the transmissions scheduled for slot t; occ is the
	// min-heap of occupied slots (see RunMAC).
	slots := map[int][]multiTx{}
	var occ []int
	schedule := func(slot int, x multiTx) {
		if len(slots[slot]) == 0 {
			occ = append(occ, slot)
			for i := len(occ) - 1; i > 0; { // sift up
				p := (i - 1) / 2
				if occ[p] <= occ[i] {
					break
				}
				occ[p], occ[i] = occ[i], occ[p]
				i = p
			}
		}
		slots[slot] = append(slots[slot], x)
	}
	popSlot := func() int {
		t := occ[0]
		last := len(occ) - 1
		occ[0] = occ[last]
		occ = occ[:last]
		for i := 0; ; { // sift down
			c := 2*i + 1
			if c >= last {
				break
			}
			if c+1 < last && occ[c+1] < occ[c] {
				c++
			}
			if occ[i] <= occ[c] {
				break
			}
			occ[i], occ[c] = occ[c], occ[i]
			i = c
		}
		return t
	}

	tr := opt.Tracer
	if tr != nil {
		tr.SetTime(0)
	}
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
		jitters[i].SeedLabeled(f.Seed, "mac-jitter")
		acted[i] = make(map[int]map[Packet]bool)
		start := f.Proto.Start(f.Src)
		mark(int32(i), f.Src, start)
		schedule(f.Start, multiTx{flow: int32(i), sender: int32(f.Src), trigger: -1, pkt: start})
	}

	fo := opt.Faults
	for len(occ) > 0 {
		t := popSlot()
		batch := slots[t]
		delete(slots, t)
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

		// Receiver-side resolution over the shared medium: every copy of
		// every flow counts toward the same per-receiver tally.
		heardBy := map[int][]int32{}
		for bi, x := range batch {
			for _, v := range g.Neighbors(int(x.sender)) {
				if fo != nil && (!fo.NodeUp(v, t+1) || !fo.LinkUp(int(x.sender), v, t+1) ||
					fo.CopyLost(int(x.sender), v, t+1)) {
					continue // the copy faded before reaching v
				}
				heardBy[v] = append(heardBy[v], int32(bi))
			}
		}
		receivers := make([]int, 0, len(heardBy))
		for v := range heardBy {
			receivers = append(receivers, v)
		}
		sort.Ints(receivers)
		for _, v := range receivers {
			copies := heardBy[v]
			res.commit(g, flows, batch, t, v, copies, tr, func(fi int32) int { return draw(fi) },
				func(fi int32, node int, pkt Packet) { mark(fi, node, pkt) },
				func(fi int32, node int, pkt Packet) bool { return acted[fi][node][pkt] },
				func(slot int, x multiTx) { schedule(slot, x) })
		}
	}

	res.fold()
	return res
}

// commit resolves one (receiver, slot) cell of the slot-map reference:
// the collision rule first, then delivery/duplicate dispatch into the
// decoded copy's flow, all on the map-based result. MultiMACWorkspace
// replays it on dense per-flow state; the two share no resolution code.
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

// timedEvent is an entry of the simulation's time-ordered queue.
type timedEvent struct {
	time int
	seq  int // FIFO tie-break for equal times
	// kind 0: transmission by node; kind 1: decision timeout at node.
	kind int
	node int
}

// eventQueue is a min-heap over (time, seq).
type eventQueue []timedEvent

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].time != q[j].time {
		return q[i].time < q[j].time
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x interface{}) { *q = append(*q, x.(timedEvent)) }
func (q *eventQueue) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// runTimedScalar is the binary-heap reference of RunTimedOpts.
func runTimedScalar(g *graph.Graph, source int, p TimedProtocol, opt TimedOptions) *Result {
	res := &Result{
		Source:     source,
		Forwarders: map[int]bool{source: true},
		Received:   map[int]bool{source: true},
		Parent:     make(map[int]int),
	}
	heard := make(map[int][]int)
	decided := map[int]bool{source: true}
	tr := opt.Tracer
	fo := opt.Faults

	var q eventQueue
	seq := 0
	push := func(t, kind, node int) {
		heap.Push(&q, timedEvent{time: t, seq: seq, kind: kind, node: node})
		seq++
	}
	push(0, 0, source)
	if tr != nil {
		tr.Send(0, source, -1)
	}
	transmissions := 0

	for q.Len() > 0 {
		ev := heap.Pop(&q).(timedEvent)
		switch ev.kind {
		case 0: // transmission
			if fo != nil && !fo.NodeUp(ev.node, ev.time) {
				break // the sender crashed before its slot
			}
			transmissions++
			if tr != nil {
				tr.SetTime(ev.time + 1)
			}
			for _, v := range g.Neighbors(ev.node) {
				if fo != nil && (!fo.NodeUp(v, ev.time+1) || !fo.LinkUp(ev.node, v, ev.time+1) ||
					fo.CopyLost(ev.node, v, ev.time+1)) {
					continue // receiver down, partitioned away, or a loss burst
				}
				heard[v] = append(heard[v], ev.node)
				if res.Received[v] {
					res.Duplicates++
					if tr != nil {
						tr.Duplicate(ev.time+1, v, ev.node)
					}
				}
				if !res.Received[v] {
					res.Received[v] = true
					res.Parent[v] = ev.node
					if ev.time+1 > res.Latency {
						res.Latency = ev.time + 1
					}
					if tr != nil {
						tr.Deliver(ev.time+1, v, ev.node)
					}
					// Schedule the decision after the back-off.
					push(ev.time+1+p.Delay(v), 1, v)
				}
			}
		case 1: // decision timeout
			v := ev.node
			if decided[v] {
				break
			}
			decided[v] = true
			if fo != nil && !fo.NodeUp(v, ev.time) {
				break // crashed nodes miss their decision window
			}
			if p.Decide(v, heard[v]) {
				res.Forwarders[v] = true
				if tr != nil {
					tr.Send(ev.time, v, res.Parent[v])
				}
				push(ev.time, 0, v)
			}
		}
	}
	mRuns.Inc()
	mTransmissions.Add(int64(transmissions))
	mDeliveries.Add(int64(len(res.Received) - 1))
	mDuplicates.Add(int64(res.Duplicates))
	return res
}
