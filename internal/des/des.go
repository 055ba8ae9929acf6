// Package des is the pending-event calendar underneath the event-driven
// simulation cores: a bucketed timestamp wheel (Wheel) for O(1)
// enqueue/dequeue on slot-quantized workloads.
//
// The design goals, in order:
//
//  1. Bit-identical replay of the scalar reference engines. The wheel
//     dequeues events in (slot, push order), exactly the (time, seq)
//     order of a binary heap with a FIFO tie-break.
//  2. Zero steady-state allocations. Buckets and scratch are pooled and
//     reused across runs (length-reset, in the style of the
//     coverage/backbone scratch); the event loop itself — Push, OpenSlot,
//     Bucket, CloseSlot — allocates only when a pooled slice grows past
//     its high-water mark.
//  3. O(occupied slots) control overhead, not O(horizon). Idle slots are
//     skipped with an occupancy bitmap (word-parallel scan), and events
//     beyond the wheel's window park in a small overflow heap until the
//     window reaches them.
//
// The wheel drives the production engines of the timed, slotted-MAC and
// multi-source MAC broadcast models (broadcast.TimedWorkspace,
// broadcast.MACWorkspace, broadcast.MultiMACWorkspace). Each engine's
// scalar map-and-heap loop survives in its package's tests as the oracle
// of the equivalence and fuzz suites.
package des

import "clustercast/internal/obs"

// Package-level counters, folded once per run by Wheel.FoldStats (so the
// event loop itself never touches the atomics).
var (
	mSlots    = obs.NewCounter("des.slots")         // occupied slots drained
	mEvents   = obs.NewCounter("des.events")        // events dequeued
	mSkipped  = obs.NewCounter("des.slots_skipped") // idle slots jumped over
	mFar      = obs.NewCounter("des.far_events")    // events parked beyond the wheel window
	mPromoted = obs.NewCounter("des.far_promoted")  // far events promoted back into buckets
	// mHighWater tracks the peak number of simultaneously pending events
	// any wheel reached — the calendar's working-set health signal.
	mHighWater = obs.NewGauge("des.wheel_high_water")
)
