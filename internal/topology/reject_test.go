package topology

import (
	refl "reflect"
	"slices"
	"testing"

	"clustercast/internal/geom"
	"clustercast/internal/graph"
	"clustercast/internal/rng"
)

// generateOracle is the rejection loop GenerateWith must reproduce, built
// from nothing the sampler uses: every attempt places its nodes, builds
// the O(n²) brute-force unit disk graph and accepts it iff a BFS from
// node 0 reaches every node.
func generateOracle(c Config, r *rng.Stream) (*Network, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	radius := c.radius()
	attempts := c.MaxAttempts
	if attempts <= 0 {
		attempts = defaultMaxAttempts(c.N)
	}
	for a := 0; a < attempts; a++ {
		positions := make([]geom.Point, c.N)
		for i := range positions {
			positions[i] = geom.Point{
				X: r.Range(c.Bounds.MinX, c.Bounds.MaxX),
				Y: r.Range(c.Bounds.MinY, c.Bounds.MaxY),
			}
		}
		g := bruteForceUDG(positions, radius)
		if !c.RequireConnected || bfsConnected(g) {
			return &Network{Positions: positions, Radius: radius, Bounds: c.Bounds, G: g}, nil
		}
	}
	return nil, disconnectedError(c, radius, attempts)
}

// bfsConnected reports whether a BFS from node 0 reaches every node.
func bfsConnected(g *graph.Graph) bool {
	reached := 0
	for _, d := range g.BFS(0) {
		if d >= 0 {
			reached++
		}
	}
	return reached == g.N()
}

// checkGenerateAgainstOracle runs GenerateWith and the oracle on equal
// streams and requires equal errors, equal networks and equal stream
// states afterwards.
func checkGenerateAgainstOracle(t *testing.T, c Config, ws *Workspace, seed uint64) {
	t.Helper()
	rGot, rWant := rng.New(seed), rng.New(seed)
	got, gotErr := GenerateWith(c, ws, rGot)
	want, wantErr := generateOracle(c, rWant)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%+v seed %d: error %v, oracle %v", c, seed, gotErr, wantErr)
	}
	if gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("%+v seed %d: error %q, oracle %q", c, seed, gotErr, wantErr)
	}
	if g, w := rGot.Uint64(), rWant.Uint64(); g != w {
		t.Fatalf("%+v seed %d: stream state %x after the call, oracle %x", c, seed, g, w)
	}
	if gotErr != nil {
		return
	}
	if !refl.DeepEqual(got.Positions, want.Positions) || got.Radius != want.Radius || got.Bounds != want.Bounds {
		t.Fatalf("%+v seed %d: accepted a different placement", c, seed)
	}
	if got.G.N() != want.G.N() || got.G.M() != want.G.M() {
		t.Fatalf("%+v seed %d: graph %d/%d, oracle %d/%d", c, seed, got.G.N(), got.G.M(), want.G.N(), want.G.M())
	}
	for v := 0; v < want.G.N(); v++ {
		if !slices.Equal(got.G.Neighbors(v), want.G.Neighbors(v)) {
			t.Fatalf("%+v seed %d: neighbors of %d = %v, oracle %v", c, seed, v, got.G.Neighbors(v), want.G.Neighbors(v))
		}
	}
}

// TestGenerateRejectMatchesOracle pins the reject-before-build sampler to
// the full-build loop across sizes, densities, budgets and degenerate
// shapes. One workspace serves every case, so stale buffers from a
// rejected attempt would show.
func TestGenerateRejectMatchesOracle(t *testing.T) {
	ws := NewWorkspace()
	sq := geom.Square(100)
	wide := geom.Rect{MinX: -30, MinY: 5, MaxX: 170, MaxY: 45}
	for _, c := range []Config{
		{N: 0, Bounds: sq, AvgDegree: 6, RequireConnected: true, MaxAttempts: 5},
		{N: 1, Bounds: sq, AvgDegree: 6, RequireConnected: true, MaxAttempts: 5},
		{N: 1, Bounds: sq, Radius: 3, RequireConnected: true, MaxAttempts: 5},
		{N: 2, Bounds: sq, Radius: 30, RequireConnected: true, MaxAttempts: 20},
		{N: 2, Bounds: sq, Radius: 1, RequireConnected: true, MaxAttempts: 20},
		{N: 2, Bounds: sq, Radius: 1, MaxAttempts: 3},
		{N: 30, Bounds: sq, Radius: 100, RequireConnected: true, MaxAttempts: 3},
		{N: 30, Bounds: sq, Radius: 250, RequireConnected: true, MaxAttempts: 3},
		{N: 80, Bounds: sq, AvgDegree: 4, RequireConnected: true, MaxAttempts: 50},
		{N: 60, Bounds: sq, AvgDegree: 6, RequireConnected: true, MaxAttempts: 50},
		{N: 100, Bounds: sq, AvgDegree: 18, RequireConnected: true, MaxAttempts: 10},
		{N: 300, Bounds: sq, AvgDegree: 1, RequireConnected: true, MaxAttempts: 50},
		{N: 300, Bounds: sq, AvgDegree: 30, RequireConnected: true, MaxAttempts: 5},
		{N: 120, Bounds: wide, AvgDegree: 8, RequireConnected: true, MaxAttempts: 50},
		{N: 40, Bounds: sq, AvgDegree: 2, MaxAttempts: 1},
	} {
		for seed := uint64(1); seed <= 8; seed++ {
			checkGenerateAgainstOracle(t, c, ws, seed)
		}
	}
}

// TestGenerateRejectStormShape pins storm's sparsest series: n=80 at d=4
// with the experiment package's budget of 200 draws per replicate accepts
// exactly 21 of replicates 0..999 at seed 2003.
func TestGenerateRejectStormShape(t *testing.T) {
	c := Config{N: 80, Bounds: geom.Square(100), AvgDegree: 4, RequireConnected: true, MaxAttempts: 200}
	ws := NewWorkspace()
	accepted := 0
	for rep := 0; rep < 1000; rep++ {
		seed := uint64(2003) ^ uint64(rep)*0x9E3779B97F4A7C15
		r := rng.NewLabeled(seed, "storm-4")
		if _, err := GenerateWith(c, ws, r); err == nil {
			accepted++
		}
		if !testing.Short() && rep%10 == 0 {
			// The oracle builds every draw; a tenth of the replicates
			// keeps the differential affordable under -race.
			got, want := rng.NewLabeled(seed, "storm-4"), rng.NewLabeled(seed, "storm-4")
			_, gotErr := GenerateWith(c, ws, got)
			_, wantErr := generateOracle(c, want)
			if (gotErr == nil) != (wantErr == nil) || got.Uint64() != want.Uint64() {
				t.Fatalf("rep %d: sampler and oracle disagree (%v vs %v)", rep, gotErr, wantErr)
			}
		}
	}
	if accepted != 21 {
		t.Fatalf("storm-4 accepted %d of 1000 replicates, want 21", accepted)
	}
}

// TestBuildRejectIsolatedClamped drives build directly with positions on
// the far boundary and outside the bounds, which the layout clamps into
// its edge cells: the connected build returns nil exactly when the
// brute-force graph is disconnected and that graph otherwise, and the
// plain build always returns it.
func TestBuildRejectIsolatedClamped(t *testing.T) {
	r := rng.New(5)
	bounds := geom.Square(50)
	ws := NewWorkspace()
	for trial := 0; trial < 300; trial++ {
		n := 2 + r.Intn(60)
		radius := 3 + r.Range(0, 60)
		positions := make([]geom.Point, n)
		for i := range positions {
			positions[i] = geom.Point{X: r.Range(0, 50), Y: r.Range(0, 50)}
			switch r.Intn(6) {
			case 0:
				positions[i].X = bounds.MaxX
			case 1:
				positions[i].Y = bounds.MaxY
			case 2:
				positions[i] = geom.Point{X: bounds.MaxX + r.Range(0, 2), Y: bounds.MinY - r.Range(0, 2)}
			}
		}
		checkBuildAgainstBruteForce(t, ws, positions, bounds, radius, true)
		checkBuildAgainstBruteForce(t, ws, positions, bounds, radius, false)
	}
}

// checkBuildAgainstBruteForce requires build to return the brute-force
// unit disk graph, or nil exactly when connected is set, there are at
// least two nodes and that graph is disconnected.
func checkBuildAgainstBruteForce(t *testing.T, ws *Workspace, positions []geom.Point, bounds geom.Rect, radius float64, connected bool) {
	t.Helper()
	n := len(positions)
	want := bruteForceUDG(positions, radius)
	reject := connected && n >= 2 && !bfsConnected(want)
	got := ws.build(positions, bounds, radius, connected)
	if (got == nil) != reject {
		t.Fatalf("n=%d r=%g connected=%v: rejected=%v, brute force disconnected=%v", n, radius, connected, got == nil, reject)
	}
	if got == nil {
		return
	}
	if got.N() != n || got.M() != want.M() {
		t.Fatalf("n=%d r=%g: graph %d/%d, brute force %d/%d", n, radius, got.N(), got.M(), n, want.M())
	}
	for v := 0; v < n; v++ {
		if !slices.Equal(got.Neighbors(v), want.Neighbors(v)) {
			t.Fatalf("n=%d r=%g: neighbors of %d = %v, brute force %v", n, radius, v, got.Neighbors(v), want.Neighbors(v))
		}
	}
}

// FuzzBuildAgree: build against the brute-force unit disk graph over
// random bounds, positions inside, on and outside the bounds, any radius
// (negative, zero, huge, NaN) and both modes.
func FuzzBuildAgree(f *testing.F) {
	f.Add(uint64(1), uint(80), 12.7, true)
	f.Add(uint64(2), uint(2), 0.0, true)
	f.Add(uint64(3), uint(40), -1.0, false)
	f.Add(uint64(4), uint(60), 1e-9, true)
	f.Add(uint64(5), uint(30), 1e300, true)
	f.Add(uint64(6), uint(1), 5.0, true)
	ws := NewWorkspace()
	f.Fuzz(func(t *testing.T, seed uint64, n uint, radius float64, connected bool) {
		r := rng.New(seed)
		bounds := geom.Rect{MinX: r.Range(-50, 50), MinY: r.Range(-50, 50)}
		bounds.MaxX = bounds.MinX + r.Range(0, 100)
		bounds.MaxY = bounds.MinY + r.Range(0, 100)
		positions := make([]geom.Point, n%200)
		for i := range positions {
			p := geom.Point{X: r.Range(bounds.MinX, bounds.MaxX), Y: r.Range(bounds.MinY, bounds.MaxY)}
			switch r.Intn(5) {
			case 0:
				p.X = bounds.MaxX
			case 1:
				p.Y = bounds.MinY
			case 2:
				p.X += r.Range(-30, 30)
				p.Y += r.Range(-30, 30)
			}
			positions[i] = p
		}
		checkBuildAgainstBruteForce(t, ws, positions, bounds, radius, connected)
	})
}

// FuzzGenerateRejectAgree: GenerateWith against the brute-force oracle
// over (n, degree, budget, seed, connectivity requirement).
func FuzzGenerateRejectAgree(f *testing.F) {
	f.Add(uint(80), uint(4), uint(50), uint64(2003), true)
	f.Add(uint(2), uint(1), uint(10), uint64(7), true)
	f.Add(uint(1), uint(3), uint(1), uint64(1), true)
	f.Add(uint(0), uint(6), uint(5), uint64(3), true)
	f.Add(uint(300), uint(30), uint(3), uint64(11), false)
	ws := NewWorkspace()
	f.Fuzz(func(t *testing.T, n, deg, attempts uint, seed uint64, connected bool) {
		c := Config{
			N:                int(n % 301),
			Bounds:           geom.Square(100),
			AvgDegree:        float64(1 + deg%30),
			RequireConnected: connected,
			MaxAttempts:      int(1 + attempts%50),
		}
		checkGenerateAgainstOracle(t, c, ws, seed)
	})
}
