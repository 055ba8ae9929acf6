package broadcast

import (
	"bytes"
	"reflect"
	"testing"

	"clustercast/internal/faults"
	"clustercast/internal/obs"
	"clustercast/internal/rng"
)

// Equivalence gates for the calendar engines: the scalar loops of
// oracle_test.go are the golden reference, and every production engine
// must replay them bit-identically — results, protocol callbacks
// (observed through the results), randomness consumption, and the typed
// trace stream (compared as JSONL bytes).

// traceBytes drains a tracer to its canonical JSONL form.
func traceBytes(t *testing.T, tr *obs.Tracer) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// burstOracle builds a deterministic fault oracle with churn, bursty
// loss, and a partition window — every fault axis at once.
func burstOracle(t *testing.T, n int, seed uint64) *faults.Oracle {
	t.Helper()
	spec := faults.Spec{MeanUp: 40, MeanDown: 12, Seed: seed}
	if err := spec.SetBurst(0.15, 3); err != nil {
		t.Fatal(err)
	}
	spec.MeanUp, spec.MeanDown = 40, 12
	return faults.New(spec, n)
}

func TestDESTimedEquivalence(t *testing.T) {
	for trial := 0; trial < 6; trial++ {
		nw := randomNet(t, 200+uint64(trial), 40+10*trial, 8)
		n := nw.G.N()
		nb := NewNeighborhood(nw.G)
		ps := []TimedProtocol{
			NewSBA(nb, 6, 17),
			CounterBased{Threshold: 3, MaxDelay: 5, Seed: 23},
			DistanceBased{Positions: nw.Positions, MinDistance: 20, MaxDelay: 4, Seed: 29},
		}
		for _, withFaults := range []bool{false, true} {
			for _, p := range ps {
				source := (trial * 3) % n
				trA, trB := obs.NewTracer(1<<14), obs.NewTracer(1<<14)
				optA, optB := TimedOptions{Tracer: trA}, TimedOptions{Tracer: trB}
				if withFaults {
					optA.Faults = burstOracle(t, n, uint64(40+trial))
					optB.Faults = burstOracle(t, n, uint64(40+trial))
				}
				a := runTimedScalar(nw.G, source, p, optA)
				tw := NewTimedWorkspace()
				b := tw.Run(nw.G, source, p, optB)
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("trial %d %s faults=%v: scalar and DES results differ:\n%+v\n%+v",
						trial, p.Name(), withFaults, a, b)
				}
				if !bytes.Equal(traceBytes(t, trA), traceBytes(t, trB)) {
					t.Fatalf("trial %d %s faults=%v: trace streams differ", trial, p.Name(), withFaults)
				}
			}
		}
	}
}

func TestDESMACEquivalence(t *testing.T) {
	for trial := 0; trial < 5; trial++ {
		nw := randomNet(t, 300+uint64(trial), 40+12*trial, 9)
		n := nw.G.N()
		ps := []Protocol{
			Flooding{},
			Gossip{P: 0.8, Seed: 31},
			StaticCDS{Set: map[int]bool{0: true, 2: true, 4: true, 6: true, 9: true}, Label: "cds"},
		}
		for _, jit := range []int{0, 3, 8} {
			for _, withFaults := range []bool{false, true} {
				for _, p := range ps {
					source := (trial * 5) % n
					trA := obs.NewTracer(1 << 14)
					optA := MACOptions{Jitter: jit, Seed: uint64(60 + trial), Tracer: trA}
					if withFaults {
						optA.Faults = burstOracle(t, n, uint64(70+trial))
					}
					a := runMACScalar(nw.G, source, p, optA)
					trB := obs.NewTracer(1 << 14)
					optB := optA
					optB.Tracer = trB
					if withFaults {
						optB.Faults = burstOracle(t, n, uint64(70+trial))
					}
					b := RunMAC(nw.G, source, p, optB)
					if !reflect.DeepEqual(&a.Result, &b.Result) ||
						a.Collisions != b.Collisions || a.LostCopies != b.LostCopies {
						t.Fatalf("trial %d %s jit=%d faults=%v: scalar and DES differ:\n%+v\n%+v",
							trial, p.Name(), jit, withFaults, a, b)
					}
					if !bytes.Equal(traceBytes(t, trA), traceBytes(t, trB)) {
						t.Fatalf("trial %d %s jit=%d faults=%v: trace streams differ",
							trial, p.Name(), jit, withFaults)
					}
				}
			}
		}
	}
}

// TestDESMACScheduleProperty is the randomized slot-schedule property
// gate: across random topologies, sources, seeds and contention
// windows, the calendar MAC engine reproduces its scalar oracle's
// (slot, sender, trigger) schedule exactly — including slots assigned
// through the `slot := t + 1 + draw()` backoff path (Jitter > 0 makes
// every forward take it).
func TestDESMACScheduleProperty(t *testing.T) {
	schedule := func(tr *obs.Tracer) [][3]int {
		var out [][3]int
		for _, ev := range tr.Events() {
			if ev.Kind == obs.EvSend {
				out = append(out, [3]int{ev.T, ev.Node, ev.Peer})
			}
		}
		return out
	}
	r := rng.New(0xDE5)
	for trial := 0; trial < 40; trial++ {
		n := 20 + r.Intn(60)
		nw := randomNet(t, 500+uint64(trial), n, 6+float64(r.Intn(5)))
		n = nw.G.N()
		opt := MACOptions{
			Jitter: 1 + r.Intn(9), // always > 0: every relay goes through the backoff draw
			Seed:   r.Uint64(),
		}
		source := r.Intn(n)
		p := Gossip{P: 0.9, Seed: r.Uint64()}
		trA := obs.NewTracer(1 << 14)
		optA := opt
		optA.Tracer = trA
		runMACScalar(nw.G, source, p, optA)
		trB := obs.NewTracer(1 << 14)
		optB := opt
		optB.Tracer = trB
		NewMACWorkspace().Run(nw.G, source, p, optB)
		a, b := schedule(trA), schedule(trB)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("trial %d (n=%d jitter=%d): (slot, sender, trigger) schedules diverge:\nscalar %v\ndes    %v",
				trial, n, opt.Jitter, a, b)
		}
		if len(a) == 0 {
			t.Fatalf("trial %d: empty schedule — property exercised nothing", trial)
		}
	}
}

// FuzzDESMACAgree cross-checks the scalar and calendar MAC engines on
// fuzzer-chosen (size, degree, jitter, seed, gossip) points.
func FuzzDESMACAgree(f *testing.F) {
	f.Add(uint64(1), 40, 8, 3, uint64(9), float64(0.8))
	f.Add(uint64(7), 25, 6, 0, uint64(2), float64(1.0))
	f.Add(uint64(42), 60, 10, 12, uint64(77), float64(0.5))
	f.Fuzz(func(t *testing.T, topoSeed uint64, n, deg, jitter int, seed uint64, gp float64) {
		if n < 5 || n > 120 || deg < 3 || deg > 14 || jitter < 0 || jitter > 20 || gp < 0 || gp > 1 {
			t.Skip()
		}
		nw := randomNet(t, topoSeed, n, float64(deg))
		n = nw.G.N()
		p := Gossip{P: gp, Seed: seed + 1}
		opt := MACOptions{Jitter: jitter, Seed: seed}
		a := runMACScalar(nw.G, 0, p, opt)
		b := RunMAC(nw.G, 0, p, opt)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("scalar and DES MAC runs differ:\n%+v\n%+v", a, b)
		}
	})
}

// TestDESMACSteadyStateAllocs pins the zero-allocation contract of the
// MAC engine's event loop (alloc-free protocol, dense result not
// materialized).
func TestDESMACSteadyStateAllocs(t *testing.T) {
	nw := randomNet(t, 10, 80, 8)
	mw := NewMACWorkspace()
	opt := MACOptions{Jitter: 6, Seed: 4}
	run := func() { mw.Run(nw.G, 0, Flooding{}, opt) }
	run()
	if avg := testing.AllocsPerRun(20, run); avg != 0 {
		t.Fatalf("DES MAC event loop allocates %.1f/run, want 0", avg)
	}
}
