package topology

import (
	"fmt"
	"math"
	"sort"

	"clustercast/internal/geom"
	"clustercast/internal/graph"
	"clustercast/internal/rng"
)

// Workspace owns every buffer one replicate pipeline needs to sample a
// random network: positions, the cell-sorted layout, the packed edge list,
// the union-find forest, the count-then-fill adjacency assembly and the
// graph itself. A worker reuses one Workspace across all its replicates
// (and across the connected-rejection attempts inside each), so
// steady-state topology sampling allocates nothing. Under RequireConnected
// a rejected attempt costs its placement, the layout and at most the pair
// sweep; the adjacency is assembled only for connected candidates (see
// build).
//
// The Network returned by GenerateWith is owned by the workspace and valid
// only until the next GenerateWith call on the same workspace.
type Workspace struct {
	positions []geom.Point

	// Cell-sorted layout (see layout): slot k of xs, ys and ids holds one
	// node, slots grouped by cell in row-major order; start[c] is the
	// first slot of padded cell c.
	cellOf []int32
	start  []int32
	ids    []int32
	xs, ys []float64

	edges   []uint64 // packed (slot a<<32 | slot b) pairs, a < b
	parent  []int32  // union-find forest over slots
	deg     []int    // per-slot degrees in the sweep, per-node fill cursors in assemble
	off     []int
	backing []int
	g       graph.Graph
	nw      Network
}

// NewWorkspace returns an empty workspace; buffers grow on first use.
func NewWorkspace() *Workspace {
	return &Workspace{}
}

// GenerateWith draws one random network exactly like Generate — same
// randomness consumption, same rejection sampling, bit-identical result —
// but reuses the workspace buffers instead of allocating.
//
// Every attempt first places all n nodes (two Range draws per node, in
// node order), so the stream advances by the same amount whether the
// attempt is accepted or rejected. Under RequireConnected the build then
// rejects every disconnected candidate before any adjacency exists; only
// a connected candidate is assembled.
func GenerateWith(c Config, ws *Workspace, r *rng.Stream) (*Network, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	radius := c.radius()
	attempts := c.MaxAttempts
	if attempts <= 0 {
		attempts = defaultMaxAttempts(c.N)
	}
	for a := 0; a < attempts; a++ {
		ws.place(c.N, c.Bounds, r)
		if g := ws.build(ws.positions, c.Bounds, radius, c.RequireConnected); g != nil {
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
	ws.positions = grow(ws.positions, n)
	for i := range ws.positions {
		ws.positions[i] = geom.Point{
			X: r.Range(bounds.MinX, bounds.MaxX),
			Y: r.Range(bounds.MinY, bounds.MaxY),
		}
	}
}

// build constructs the unit disk graph over the positions (u ~ v iff
// dx*dx+dy*dy <= radius*radius; a negative radius yields no edges) into
// the workspace graph. It is the single implementation behind
// buildUnitDiskGraph and the zero-allocation replicate path.
//
// With connected set and at least two nodes, build returns nil exactly
// when the graph is disconnected, cheapest test first:
//
//  1. Before the sweep, every node in a border cell (see lonelyBorderNode)
//     is checked for any neighbor. Border nodes see about half the disk of
//     an interior node, so most sparse rejections end here.
//  2. The half-neighborhood sweep runs one cell row at a time. Once a row
//     is swept its nodes' degrees are final, and a degree-0 node rejects.
//  3. Union-find over the packed edge list settles connectivity.
//
// Only a connected candidate (or any candidate without connected) is
// assembled in compressed-sparse-row form: offsets are one prefix-sum
// pass, the flat neighbor array is filled with per-node cursors, and each
// segment is insertion-sorted in place. The handoff to the graph is the
// trusted RenewCSR — the sweep visits every unordered pair at most once
// and never pairs a node with itself, so the symmetric/duplicate-free/
// in-range validation Renew would re-run is guaranteed by construction.
func (ws *Workspace) build(positions []geom.Point, bounds geom.Rect, radius float64, connected bool) *graph.Graph {
	n := len(positions)
	connected = connected && n >= 2
	r2 := radius * radius
	if radius < 0 {
		r2 = math.Inf(-1)
	}
	cols, rows := ws.layout(positions, bounds, geom.CellSide(bounds, n, radius))
	if connected && ws.lonelyBorderNode(cols, rows, r2) {
		return nil
	}
	edges, ok := ws.sweep(cols, rows, r2, geom.ExpectedDegree(n, bounds.Area(), radius), connected)
	if !ok || (connected && !ws.unionAll(edges)) {
		return nil
	}
	return ws.assemble(edges)
}

// layout counting-sorts the nodes into a row-major array of cells of the
// given side, framed by one ring of empty padding cells so every real
// cell has all eight neighbors, and copies the coordinates into cell
// order. The cell of a point is geom.Grid's: floor of the offset over the
// side, clamped into the real cols×rows cells, so points on or outside
// the bounds land in the edge cells — clamping preserves "at most one
// cell apart" and so keeps the 3×3 query exact. It returns the real cell
// counts; padded cell (cx+1, cy+1) holds real cell (cx, cy).
func (ws *Workspace) layout(positions []geom.Point, bounds geom.Rect, side float64) (cols, rows int) {
	n := len(positions)
	cols = max(int(math.Ceil(bounds.Width()/side))+1, 1)
	rows = max(int(math.Ceil(bounds.Height()/side))+1, 1)
	pcols := cols + 2
	cells := pcols * (rows + 2)
	// Counts land two ahead so that, after the prefix sum, start[c+1] is
	// the fill cursor of cell c and ends as the first slot of cell c+1.
	start := grow(ws.start, cells+2)
	clear(start)
	cellOf := grow(ws.cellOf, n)
	for i, p := range positions {
		cx := int((p.X - bounds.MinX) / side)
		cy := int((p.Y - bounds.MinY) / side)
		cx = min(max(cx, 0), cols-1)
		cy = min(max(cy, 0), rows-1)
		c := int32((cy+1)*pcols + cx + 1)
		cellOf[i] = c
		start[c+2]++
	}
	var sum int32
	for c, cnt := range start {
		sum += cnt
		start[c] = sum
	}
	ids, xs, ys := grow(ws.ids, n), grow(ws.xs, n), grow(ws.ys, n)
	for i, p := range positions {
		k := start[cellOf[i]+1]
		start[cellOf[i]+1]++
		ids[k], xs[k], ys[k] = int32(i), p.X, p.Y
	}
	ws.start, ws.cellOf, ws.ids, ws.xs, ws.ys = start[:cells+1], cellOf, ids, xs, ys
	return cols, rows
}

// lonelyBorderNode reports whether some node in a border cell has no
// neighbor. The border cells are the real columns 0, cols-2, cols-1 and
// rows 0, rows-2, rows-1: the last real row and column only hold points
// on or beyond the far edge, so the one before them is the far edge's
// occupied strip. A node's 3×3 block is three contiguous slot ranges, and
// the scan stops at its first neighbor.
func (ws *Workspace) lonelyBorderNode(cols, rows int, r2 float64) bool {
	start, xs, ys := ws.start, ws.xs, ws.ys
	pcols := cols + 2
	for cy := 0; cy < rows; cy++ {
		inner := cy > 0 && cy < rows-2
		for cx := 0; cx < cols; cx++ {
			if inner && cx == 1 && cols > 3 {
				cx = cols - 2
			}
			c := (cy+1)*pcols + cx + 1
		nodes:
			for k := start[c]; k < start[c+1]; k++ {
				x, y := xs[k], ys[k]
				for _, rc := range [3]int{c - pcols, c, c + pcols} {
					for j := start[rc-1]; j < start[rc+2]; j++ {
						dx, dy := x-xs[j], y-ys[j]
						if j != k && dx*dx+dy*dy <= r2 {
							continue nodes
						}
					}
				}
				return true
			}
		}
	}
	return false
}

// sweep distance-tests every candidate pair once over the half
// neighborhood: a node at slot k pairs with the rest of its own row up to
// the end of the E cell (slots k+1 … end of E) and with the SW, S and SE
// cells of the next row, each range contiguous in the layout. Edges are
// packed into one slice sized from the Poisson degree estimate; the
// per-slot degrees land in ws.deg. A pair is reported by the upper row of
// its two cells, so once anchor row cy is swept its nodes' degrees are
// final; with connected, sweep reports !ok at the first such row holding
// a degree-0 node.
func (ws *Workspace) sweep(cols, rows int, r2, expDeg float64, connected bool) (edges []uint64, ok bool) {
	n := len(ws.ids)
	start, xs, ys := ws.start, ws.xs, ws.ys
	ws.deg = grow(ws.deg, n)
	deg := ws.deg
	clear(deg)
	// The hint never exceeds the pair count: a tiny area or a huge radius
	// inflates the estimate without bound.
	hint := float64(n) * (expDeg*0.65 + 2)
	if pairs := float64(n) * float64(n-1) / 2; !(hint <= pairs) {
		hint = pairs
	}
	if cap(ws.edges) < int(hint) {
		ws.edges = make([]uint64, 0, int(hint))
	}
	edges = ws.edges[:0]
	pcols := cols + 2
	for cy := 1; cy <= rows; cy++ {
		first := cy*pcols + 1
		for c := first; c < first+cols; c++ {
			sw, seEnd := start[c+pcols-1], start[c+pcols+2]
			for k := start[c]; k < start[c+1]; k++ {
				x, y := xs[k], ys[k]
				for j := k + 1; j < start[c+2]; j++ {
					if dx, dy := x-xs[j], y-ys[j]; dx*dx+dy*dy <= r2 {
						deg[k]++
						deg[j]++
						edges = append(edges, uint64(k)<<32|uint64(j))
					}
				}
				for j := sw; j < seEnd; j++ {
					if dx, dy := x-xs[j], y-ys[j]; dx*dx+dy*dy <= r2 {
						deg[k]++
						deg[j]++
						edges = append(edges, uint64(k)<<32|uint64(j))
					}
				}
			}
		}
		if connected {
			for k := start[first]; k < start[first+cols]; k++ {
				if deg[k] == 0 {
					ws.edges = edges
					return nil, false
				}
			}
		}
	}
	ws.edges = edges
	return edges, true
}

// unionAll reports whether the edges join all the slots into one
// component: union-find with path halving, stopping once one component is
// left.
func (ws *Workspace) unionAll(edges []uint64) bool {
	n := len(ws.ids)
	parent := grow(ws.parent, n)
	ws.parent = parent
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	comps := n
	for _, e := range edges {
		a, b := find(int32(e>>32)), find(int32(e&0xffffffff))
		if a == b {
			continue
		}
		if a < b {
			parent[b] = a
		} else {
			parent[a] = b
		}
		if comps--; comps == 1 {
			return true
		}
	}
	return comps <= 1
}

// assemble fills the workspace graph's CSR arrays from the slot-packed
// edges, translating slots back to node ids.
func (ws *Workspace) assemble(edges []uint64) *graph.Graph {
	n, ids, deg := len(ws.ids), ws.ids, ws.deg
	ws.off = grow(ws.off, n+1)
	off := ws.off
	off[0] = 0
	for k, u := range ids {
		off[u+1] = deg[k]
	}
	for u := 0; u < n; u++ {
		off[u+1] += off[u]
	}
	if cap(ws.backing) < off[n] {
		ws.backing = make([]int, off[n])
	}
	backing := ws.backing[:off[n]]
	cur := deg // free after the offsets: reuse as per-node fill cursors
	copy(cur, off[:n])
	for _, e := range edges {
		u, v := int(ids[e>>32]), int(ids[e&0xffffffff])
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

// grow returns buf resliced to length n, reallocated when too small. The
// contents are unspecified.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
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
