package workload

import (
	"math"
	"reflect"
	"testing"

	"clustercast/internal/broadcast"
	"clustercast/internal/geom"
	"clustercast/internal/rng"
	"clustercast/internal/topology"
)

func testNet(t testing.TB, seed uint64, n int, deg float64) *topology.Network {
	t.Helper()
	r := rng.New(seed)
	nw, err := topology.Generate(topology.Config{
		N: n, Bounds: geom.Square(100), AvgDegree: deg,
		RequireConnected: true, MaxAttempts: 500,
	}, r)
	if err != nil {
		t.Skipf("could not generate network: %v", err)
	}
	return nw
}

func TestGenerateDeterministic(t *testing.T) {
	spec := Spec{Process: Poisson, Rate: 0.25, Flows: 50, FanOut: 2, Discovery: true, Seed: 9}
	a, err := spec.Generate(40)
	if err != nil {
		t.Fatal(err)
	}
	b, err := spec.Generate(40)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two generations of the same spec differ")
	}
	if len(a) != 50 {
		t.Fatalf("generated %d flows, want 50", len(a))
	}
	for i, f := range a {
		if f.ID != i {
			t.Fatalf("flow %d has ID %d", i, f.ID)
		}
		if f.Src < 0 || f.Src >= 40 || f.Dst < 0 || f.Dst >= 40 {
			t.Fatalf("flow %d endpoints out of range: %+v", i, f)
		}
		if f.Dst == f.Src {
			t.Fatalf("discovery flow %d has Dst == Src", i)
		}
		if i > 0 && f.Start < a[i-1].Start {
			t.Fatalf("flow %d starts before its predecessor", i)
		}
		if f.Seed != spec.FlowSeed(i) {
			t.Fatalf("flow %d seed is not the counter key", i)
		}
	}
}

// TestFlowSeedsAreCounterKeys: a flow's seed does not depend on how many
// flows the spec generates (counter keys, not stream draws).
func TestFlowSeedsAreCounterKeys(t *testing.T) {
	small := Spec{Process: Bursty, Burst: 2, Every: 5, Flows: 4, Seed: 3}
	large := small
	large.Flows = 32
	a, err := small.Generate(30)
	if err != nil {
		t.Fatal(err)
	}
	b, err := large.Generate(30)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b[:len(a)]) {
		t.Fatal("flow prefix changed when the spec generated more flows")
	}
}

func TestGenerateBursty(t *testing.T) {
	spec := Spec{Process: Bursty, Burst: 3, Every: 10, Flows: 9, Seed: 1}
	flows, err := spec.Generate(20)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range flows {
		if want := (i / 3) * 10; f.Start != want {
			t.Fatalf("flow %d starts at %d, want %d", i, f.Start, want)
		}
		if f.Dst != -1 {
			t.Fatalf("broadcast flow %d has a destination", i)
		}
	}
}

func TestSpecValidate(t *testing.T) {
	bad := []Spec{
		{},
		{Process: Poisson, Rate: 0, Flows: 5},
		{Process: Poisson, Rate: -1, Flows: 5},
		{Process: Bursty, Burst: 0, Every: 5, Flows: 5},
		{Process: Bursty, Burst: 5, Every: 0, Flows: 5},
		{Process: Process(7), Flows: 5},
		{Process: Poisson, Rate: 1, Flows: 5, FanOut: -1},
		{Process: Poisson, Rate: math.NaN(), Flows: 5},
		{Process: Poisson, Rate: math.Inf(1), Flows: 5},
		{Process: Bursty, Rate: math.NaN(), Burst: 2, Every: 5, Flows: 5},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Fatalf("case %d: Validate accepted %+v", i, s)
		}
	}
	ok := DefaultSpec(1)
	if _, err := ok.Generate(0); err == nil {
		t.Fatal("Generate accepted n = 0")
	}
}

func TestParseSpecRoundTrip(t *testing.T) {
	specs := []Spec{
		{Process: Poisson, Rate: 0.2, Flows: 64, FanOut: 1, Seed: 7},
		{Process: Poisson, Rate: 1.5, Flows: 10, FanOut: 3, Discovery: true},
		{Process: Bursty, Burst: 8, Every: 20, Flows: 40, FanOut: 1, Seed: 12},
	}
	for i, want := range specs {
		got, err := ParseSpec(want.String())
		if err != nil {
			t.Fatalf("case %d: ParseSpec(%q): %v", i, want.String(), err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d: round trip %q → %+v, want %+v", i, want.String(), got, want)
		}
	}
	if _, err := ParseSpec(""); err != nil {
		t.Fatalf("empty spec: %v", err)
	}
	for _, bad := range []string{"nope", "proc=martian", "rate=x", "flows=0",
		"rate=NaN,flows=4", "rate=Inf,flows=4", "rate=-Inf,flows=4", "proc=bursty,burst=2,every=5,rate=NaN"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Fatalf("ParseSpec accepted %q", bad)
		}
	}
}

// TestRunTrafficScalarDESIdentical: the traffic runner reports identical
// aggregates whether the engine allocates per run (broadcast.RunMACMulti)
// or reuses a held workspace.
func TestRunTrafficScalarDESIdentical(t *testing.T) {
	nw := testNet(t, 5, 50, 9)
	spec := Spec{Process: Poisson, Rate: 0.5, Flows: 24, FanOut: 2, Seed: 11}
	flows, err := spec.Generate(nw.N())
	if err != nil {
		t.Fatal(err)
	}
	proto := func(int) broadcast.Protocol { return broadcast.Flooding{} }
	opt := broadcast.MACOptions{Jitter: 3}
	held := broadcast.NewMultiMACWorkspace().Run
	RunTraffic(nw.G, flows, proto, opt, held) // dirty the workspace first
	a := RunTraffic(nw.G, flows, proto, opt, broadcast.RunMACMulti)
	b := RunTraffic(nw.G, flows, proto, opt, held)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("fresh and held-workspace traffic aggregates differ:\n%+v\n%+v", a, b)
	}
	if a.Flows != len(flows) || a.Transmissions == 0 || a.DeliveryRatio <= 0 {
		t.Fatalf("traffic run did no work: %+v", a)
	}
}

// TestRunDiscoveryScalarDESIdentical: same for the discovery runner.
func TestRunDiscoveryScalarDESIdentical(t *testing.T) {
	nw := testNet(t, 6, 50, 10)
	spec := Spec{Process: Bursty, Burst: 2, Every: 15, Flows: 16, Discovery: true, Seed: 13}
	flows, err := spec.Generate(nw.N())
	if err != nil {
		t.Fatal(err)
	}
	proto := func(int) broadcast.Protocol { return broadcast.Flooding{} }
	opt := broadcast.MACOptions{Jitter: 4}
	held := broadcast.NewMultiMACWorkspace().Run
	RunDiscovery(nw.G, flows, proto, opt, held) // dirty the workspace first
	a := RunDiscovery(nw.G, flows, proto, opt, broadcast.RunMACMulti)
	b := RunDiscovery(nw.G, flows, proto, opt, held)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("fresh and held-workspace discovery aggregates differ:\n%+v\n%+v", a, b)
	}
	if a.Requests != len(flows) {
		t.Fatalf("discovery run offered %d requests, want %d", a.Requests, len(flows))
	}
	if a.Found == 0 {
		t.Fatal("no route found under a light bursty load; the runner exercised nothing")
	}
	if a.Found > 0 && (a.MeanRouteLen <= 0 || a.MeanLatency <= 0 || a.MeanStretch < 1) {
		t.Fatalf("implausible discovery aggregates: %+v", a)
	}
}

// TestRunTrafficDefaultEngine: a nil engine falls back to
// broadcast.RunMACMulti.
func TestRunTrafficDefaultEngine(t *testing.T) {
	nw := testNet(t, 7, 30, 8)
	spec := DefaultSpec(3)
	spec.Flows = 8
	flows, err := spec.Generate(nw.N())
	if err != nil {
		t.Fatal(err)
	}
	proto := func(int) broadcast.Protocol { return broadcast.Flooding{} }
	a := RunTraffic(nw.G, flows, proto, broadcast.MACOptions{Jitter: 2}, nil)
	b := RunTraffic(nw.G, flows, proto, broadcast.MACOptions{Jitter: 2}, broadcast.RunMACMulti)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("nil engine is not broadcast.RunMACMulti:\n%+v\n%+v", a, b)
	}
}
