package topology

import (
	"fmt"
	"sort"

	"clustercast/internal/geom"
	"clustercast/internal/graph"
	"clustercast/internal/rng"
)

// Workspace owns every buffer one replicate pipeline needs to sample a
// random network: positions, the spatial grid, the packed edge list, the
// count-then-fill adjacency assembly, the graph itself and the connectivity
// scratch. A worker reuses one Workspace across all its replicates (and
// across the connected-rejection attempts inside each), so steady-state
// topology sampling allocates nothing. Under RequireConnected a rejected
// attempt costs only its placement and the part of the pair sweep before
// its first isolated node; the adjacency is assembled only for candidates
// that survive the sweep (see build).
//
// The Network returned by GenerateWith is owned by the workspace and valid
// only until the next GenerateWith call on the same workspace.
type Workspace struct {
	positions []geom.Point
	grid      geom.Grid
	edges     []uint64
	deg       []int
	off       []int
	backing   []int
	scratch   *graph.Scratch
	g         graph.Graph
	nw        Network
}

// NewWorkspace returns an empty workspace; buffers grow on first use.
func NewWorkspace() *Workspace {
	return &Workspace{scratch: graph.NewScratch(0)}
}

// GenerateWith draws one random network exactly like Generate — same
// randomness consumption, same rejection sampling, bit-identical result —
// but reuses the workspace buffers instead of allocating.
//
// Every attempt first places all n nodes (two Range draws per node, in
// node order), so the stream advances by the same amount whether the
// attempt is accepted or rejected. Under RequireConnected with n ≥ 2 the
// sequential build then rejects the attempt at the first grid row that
// completes with an isolated node, before any adjacency exists; only a
// candidate without isolated nodes is assembled and checked by BFS.
func GenerateWith(c Config, ws *Workspace, r *rng.Stream) (*Network, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	radius := c.radius()
	attempts := c.MaxAttempts
	if attempts <= 0 {
		attempts = defaultMaxAttempts(c.N)
	}
	// A lone node is connected at degree 0, so only n ≥ 2 rejects early.
	rejectIsolated := c.RequireConnected && c.N >= 2
	for a := 0; a < attempts; a++ {
		ws.place(c.N, c.Bounds, r)
		g := ws.build(ws.positions, c.Bounds, radius, rejectIsolated)
		if g == nil {
			continue
		}
		if !c.RequireConnected || g.ConnectedWith(ws.scratch) {
			ws.nw = Network{Positions: ws.positions, Radius: radius, Bounds: c.Bounds, G: g}
			return &ws.nw, nil
		}
	}
	return nil, disconnectedError(c, radius, attempts)
}

// disconnectedError explains an exhausted connected-sampling budget and
// wraps ErrDisconnected.
func disconnectedError(c Config, radius float64, attempts int) error {
	return fmt.Errorf("topology: no connected unit-disk sample for n=%d (target degree %.3g, radius %.4g, bounds %.4gx%.4g) after %d attempts — the density is likely below the connectivity threshold; raise AvgDegree/Radius or MaxAttempts, or clear RequireConnected: %w",
		c.N, c.AvgDegree, radius, c.Bounds.Width(), c.Bounds.Height(), attempts, ErrDisconnected)
}

// defaultMaxAttempts bounds connected-only rejection sampling when the
// caller sets no explicit MaxAttempts: the paper-scale default of 10000
// attempts, scaled down once a single placement becomes expensive so an
// infeasible configuration (large n, sub-threshold degree) fails in
// bounded time with the descriptive error above instead of effectively
// hanging. Callers that pass MaxAttempts are unaffected.
func defaultMaxAttempts(n int) int {
	const budget = 20_000_000 // total node placements we are willing to spend
	if n <= budget/10000 {
		return 10000
	}
	a := budget / n
	if a < 10 {
		a = 10
	}
	return a
}

// place draws n uniform positions into the workspace buffer: x then y for
// each node, in node order.
func (ws *Workspace) place(n int, bounds geom.Rect, r *rng.Stream) {
	if cap(ws.positions) < n {
		ws.positions = make([]geom.Point, n)
	}
	ws.positions = ws.positions[:n]
	for i := range ws.positions {
		ws.positions[i] = geom.Point{
			X: r.Range(bounds.MinX, bounds.MaxX),
			Y: r.Range(bounds.MinY, bounds.MaxY),
		}
	}
}

// build constructs the unit disk graph over the positions into the
// workspace graph, reusing the grid, the packed edge list and the CSR
// arrays. It is the single implementation behind buildUnitDiskGraph and
// the zero-allocation replicate path.
//
// The sequential sweep runs one anchor row of the grid at a time. A pair
// is reported by the row of its first cell in sweep order (in-cell and E
// pairs by their own row, S/SW/SE pairs by the row above), so once anchor
// row cy is swept every node stored in row cy has its final degree. With
// rejectIsolated, build returns nil at the first such row holding a
// degree-0 node: the graph cannot be connected, and no adjacency has been
// assembled yet.
//
// The graph is assembled directly in compressed-sparse-row form: degrees
// are counted during the pair sweep, offsets are one prefix-sum pass, the
// flat neighbor array is filled with per-node cursors, and each segment is
// insertion-sorted in place. The handoff to the graph is the trusted
// RenewCSR — the half-neighborhood sweep visits every unordered pair at
// most once and never pairs a node with itself, so the symmetric/
// duplicate-free/in-range validation Renew would re-run is guaranteed by
// construction.
func (ws *Workspace) build(positions []geom.Point, bounds geom.Rect, radius float64, rejectIsolated bool) *graph.Graph {
	n := len(positions)
	ws.ensureCSR(n)
	if radius < 0 {
		off := ws.off
		for i := range off {
			off[i] = 0
		}
		ws.g.RenewCSR(off, ws.backing[:0])
		return &ws.g
	}
	gridCell := radius
	if gridCell <= 0 {
		gridCell = bounds.Width() + bounds.Height() + 1 // degenerate: one big cell
	}
	ws.grid.Reset(bounds, gridCell)
	for _, p := range positions {
		ws.grid.Insert(p)
	}
	// One half-neighborhood sweep distance-tests every candidate pair once;
	// edges are packed into one slice sized from the Poisson degree
	// estimate, then the adjacency lists are assembled count-then-fill into
	// a single backing array.
	capHint := int(float64(n)*geom.ExpectedDegree(n, bounds.Area(), radius)*0.65) + 2*n
	if cap(ws.edges) < capHint {
		ws.edges = make([]uint64, 0, capHint)
	}
	edges := ws.edges[:0]
	deg := ws.deg
	for i := range deg {
		deg[i] = 0
	}
	pair := func(u, v int) {
		deg[u]++
		deg[v]++
		edges = append(edges, uint64(u)<<32|uint64(v))
	}
	for cy, rows := 0, ws.grid.Rows(); cy < rows; cy++ {
		ws.grid.PairsRows(radius, cy, cy+1, pair)
		if rejectIsolated && hasIsolated(ws.grid.RowCells(cy), deg) {
			ws.edges = edges
			return nil
		}
	}
	ws.edges = edges
	off := ws.off
	off[0] = 0
	for u := 0; u < n; u++ {
		off[u+1] = off[u] + deg[u]
	}
	if cap(ws.backing) < off[n] {
		ws.backing = make([]int, off[n])
	}
	backing := ws.backing[:off[n]]
	cur := deg // reuse as fill cursors
	copy(cur, off[:n])
	for _, e := range edges {
		u, v := int(e>>32), int(e&0xffffffff)
		backing[cur[u]] = v
		cur[u]++
		backing[cur[v]] = u
		cur[v]++
	}
	for u := 0; u < n; u++ {
		sortShortPos(backing[off[u]:off[u+1]])
	}
	ws.g.RenewCSR(off, backing)
	return &ws.g
}

// hasIsolated reports whether any node stored in the row's cells has
// degree zero.
func hasIsolated(row [][]int, deg []int) bool {
	for _, cell := range row {
		for _, u := range cell {
			if deg[u] == 0 {
				return true
			}
		}
	}
	return false
}

// ensureCSR sizes the degree/offset buffers for n nodes.
func (ws *Workspace) ensureCSR(n int) {
	if cap(ws.deg) < n {
		ws.deg = make([]int, n)
	}
	ws.deg = ws.deg[:n]
	if cap(ws.off) < n+1 {
		ws.off = make([]int, n+1)
	}
	ws.off = ws.off[:n+1]
}

// sortShortPos sorts a short neighbor list in place (insertion sort; the
// generic machinery costs more than it saves at radio-graph degrees).
func sortShortPos(l []int) {
	if len(l) > 32 {
		sort.Ints(l)
		return
	}
	for i := 1; i < len(l); i++ {
		v := l[i]
		j := i - 1
		for j >= 0 && l[j] > v {
			l[j+1] = l[j]
			j--
		}
		l[j+1] = v
	}
}
