package topology

import (
	"testing"

	"clustercast/internal/geom"
	"clustercast/internal/graph"
	"clustercast/internal/rng"
)

// graphsEqual compares two graphs structurally: node count, edge count and
// every (sorted) adjacency list.
func graphsEqual(t *testing.T, step int, got, want *graph.Graph) {
	t.Helper()
	if got.N() != want.N() {
		t.Fatalf("step %d: node count %d, want %d", step, got.N(), want.N())
	}
	if got.M() != want.M() {
		t.Fatalf("step %d: edge count %d, want %d", step, got.M(), want.M())
	}
	for u := 0; u < want.N(); u++ {
		g, w := got.Neighbors(u), want.Neighbors(u)
		if len(g) != len(w) {
			t.Fatalf("step %d: node %d degree %d, want %d", step, u, len(g), len(w))
		}
		for i := range w {
			if g[i] != w[i] {
				t.Fatalf("step %d: node %d neighbors %v, want %v", step, u, g, w)
			}
		}
	}
}

// newTestNetwork draws a connected 100-node degree-8 network.
func newTestNetwork(t *testing.T, seed uint64) *Network {
	t.Helper()
	nw, err := Generate(Config{
		N: 100, Bounds: geom.Square(100), AvgDegree: 8,
		RequireConnected: true,
	}, rng.New(seed))
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	return nw
}

// TestDynamicMatchesRebuildRandomWaypoint drives a random-waypoint model —
// fast enough that most nodes move every step, exercising the dense regime
// — and checks the incremental graph against a full rebuild at every step.
func TestDynamicMatchesRebuildRandomWaypoint(t *testing.T) {
	nw := newTestNetwork(t, 42)
	bounds := nw.Bounds
	mob := NewRandomWaypoint(nw.Positions, bounds, 1, 10, 0.2, rng.New(7))
	dyn := NewDynamic(nw)
	for step := 1; step <= 30; step++ {
		pos := mob.Step(1)
		got := dyn.Step(pos)
		want := FromPositions(pos, bounds, nw.Radius)
		graphsEqual(t, step, got.G, want.G)
		for i, p := range pos {
			if got.Positions[i] != p {
				t.Fatalf("step %d: position %d = %v, want %v", step, i, got.Positions[i], p)
			}
		}
	}
}

// TestDynamicMatchesRebuildSparse perturbs only a handful of nodes per
// step — the sparse repair regime — including steps with zero movement.
func TestDynamicMatchesRebuildSparse(t *testing.T) {
	nw := newTestNetwork(t, 2003)
	bounds := nw.Bounds
	r := rng.New(99)
	pos := append([]geom.Point(nil), nw.Positions...)
	dyn := NewDynamic(nw)
	for step := 1; step <= 60; step++ {
		movers := r.Intn(6) // 0..5 of 100 nodes: always below the dense threshold
		for k := 0; k < movers; k++ {
			i := r.Intn(len(pos))
			pos[i] = bounds.Clamp(geom.Point{
				X: pos[i].X + r.Range(-15, 15),
				Y: pos[i].Y + r.Range(-15, 15),
			})
		}
		got := dyn.Step(pos)
		want := FromPositions(pos, bounds, nw.Radius)
		graphsEqual(t, step, got.G, want.G)
	}
}

// TestDynamicMixedRegimes alternates big teleport steps (dense) with tiny
// perturbations (sparse), so each regime inherits state left by the other.
func TestDynamicMixedRegimes(t *testing.T) {
	nw := newTestNetwork(t, 11)
	bounds := nw.Bounds
	r := rng.New(5)
	pos := append([]geom.Point(nil), nw.Positions...)
	dyn := NewDynamic(nw)
	for step := 1; step <= 40; step++ {
		if step%4 == 0 {
			for i := range pos { // teleport everyone: dense
				pos[i] = geom.Point{X: r.Range(0, 100), Y: r.Range(0, 100)}
			}
		} else {
			i := r.Intn(len(pos)) // nudge one node: sparse
			pos[i] = bounds.Clamp(geom.Point{X: pos[i].X + r.Range(-20, 20), Y: pos[i].Y + r.Range(-20, 20)})
		}
		got := dyn.Step(pos)
		want := FromPositions(pos, bounds, nw.Radius)
		graphsEqual(t, step, got.G, want.G)
	}
}

// TestGenerateWithMatchesGenerate proves the reused-workspace sampling path
// is bit-identical to the allocating one, including across rejection
// sampling and repeated reuse of a single workspace.
func TestGenerateWithMatchesGenerate(t *testing.T) {
	cfg := Config{N: 80, Bounds: geom.Square(100), AvgDegree: 6, RequireConnected: true}
	ws := NewWorkspace()
	for rep := 0; rep < 25; rep++ {
		seed := uint64(1000 + rep)
		want, err := Generate(cfg, rng.New(seed))
		if err != nil {
			t.Fatalf("rep %d: generate: %v", rep, err)
		}
		got, err := GenerateWith(cfg, ws, rng.New(seed))
		if err != nil {
			t.Fatalf("rep %d: generate with workspace: %v", rep, err)
		}
		graphsEqual(t, rep, got.G, want.G)
		for i := range want.Positions {
			if got.Positions[i] != want.Positions[i] {
				t.Fatalf("rep %d: position %d differs", rep, i)
			}
		}
		if got.Radius != want.Radius {
			t.Fatalf("rep %d: radius %v, want %v", rep, got.Radius, want.Radius)
		}
	}
}

// TestDynamicTinyRadius: a range far below the node spacing used to size
// the updater's grid as (side/r)² cells, ~10¹⁶ here; the grid now has
// O(n) cells and the updater still tracks the brute-force graph.
func TestDynamicTinyRadius(t *testing.T) {
	r := rng.New(4)
	bounds := geom.Square(100)
	const radius = 1e-6
	pos := make([]geom.Point, 10)
	for i := range pos {
		pos[i] = geom.Point{X: r.Range(0, 100), Y: r.Range(0, 100)}
	}
	pos[1] = geom.Point{X: pos[0].X + radius/2, Y: pos[0].Y}
	d := NewDynamic(FromPositions(pos, bounds, radius))
	graphsEqual(t, 0, d.Network().G, bruteForceUDG(pos, radius))
	pos[2] = geom.Point{X: pos[0].X, Y: pos[0].Y + radius/2}
	graphsEqual(t, 1, d.Step(pos).G, bruteForceUDG(pos, radius))
}
