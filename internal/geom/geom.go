// Package geom provides the planar geometry primitives underlying the
// unit-disk-graph model of a MANET: points, rectangles (the confined working
// space of the paper, 100×100 by default) and a spatial hash grid that makes
// neighbor discovery O(1) per node instead of O(n).
package geom

import (
	"fmt"
	"math"
)

// Point is a position in the plane.
type Point struct {
	X, Y float64
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.3f, %.3f)", p.X, p.Y) }

// Add returns p translated by q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns the vector p − q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by k.
func (p Point) Scale(k float64) Point { return Point{p.X * k, p.Y * k} }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Dist2 returns the squared Euclidean distance between p and q. Comparing
// squared distances avoids the square root in the inner loop of neighbor
// discovery.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Norm returns the Euclidean length of p viewed as a vector.
func (p Point) Norm() float64 { return math.Hypot(p.X, p.Y) }

// Lerp returns the point a fraction t of the way from p to q.
func (p Point) Lerp(q Point, t float64) Point {
	return Point{p.X + (q.X-p.X)*t, p.Y + (q.Y-p.Y)*t}
}

// Rect is an axis-aligned rectangle [MinX, MaxX] × [MinY, MaxY].
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// Square returns a side×side rectangle anchored at the origin — the paper's
// confined working space is Square(100).
func Square(side float64) Rect {
	return Rect{0, 0, side, side}
}

// Width returns the horizontal extent of r.
func (r Rect) Width() float64 { return r.MaxX - r.MinX }

// Height returns the vertical extent of r.
func (r Rect) Height() float64 { return r.MaxY - r.MinY }

// Area returns the area of r.
func (r Rect) Area() float64 { return r.Width() * r.Height() }

// Contains reports whether p lies inside r (inclusive of the boundary).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.MinX && p.X <= r.MaxX && p.Y >= r.MinY && p.Y <= r.MaxY
}

// Clamp returns p moved to the nearest point inside r.
func (r Rect) Clamp(p Point) Point {
	return Point{
		X: math.Max(r.MinX, math.Min(r.MaxX, p.X)),
		Y: math.Max(r.MinY, math.Min(r.MaxY, p.Y)),
	}
}

// Center returns the midpoint of r.
func (r Rect) Center() Point {
	return Point{(r.MinX + r.MaxX) / 2, (r.MinY + r.MaxY) / 2}
}

// Grid is a uniform spatial hash over a rectangle. With cell size equal to
// the radio range, all neighbors of a point lie in its own cell or one of the
// 8 adjacent cells, making range queries O(neighbors).
type Grid struct {
	bounds Rect
	cell   float64
	cols   int
	rows   int
	cells  [][]int // flattened cell index -> ids stored there
	points []Point // id -> position (ids are dense, assigned by Insert order)
}

// CellSide returns the spatial-hash cell side for n points with radio
// range radius over bounds: the range itself, widened where the range is
// tiny relative to the node spacing so the cell count stays O(n). Any side
// ≥ radius keeps a 3×3 cell query exact. With the paper's degree-derived
// ranges (d ≥ π) the side is the range. A non-positive result (degenerate
// bounds and range) falls back to one cell over the whole rectangle.
func CellSide(bounds Rect, n int, radius float64) float64 {
	if n < 1 {
		n = 1
	}
	side := math.Max(radius, math.Sqrt(bounds.Area()/float64(n)))
	side = math.Max(side, math.Max(bounds.Width(), bounds.Height())/float64(n))
	if !(side > 0) {
		side = bounds.Width() + bounds.Height() + 1
	}
	return side
}

// NewGrid builds an empty grid over bounds with the given cell size. The
// cell size should normally be CellSide of the radio transmission range.
func NewGrid(bounds Rect, cellSize float64) *Grid {
	if cellSize <= 0 {
		panic("geom: non-positive grid cell size")
	}
	cols := int(math.Ceil(bounds.Width()/cellSize)) + 1
	rows := int(math.Ceil(bounds.Height()/cellSize)) + 1
	if cols < 1 {
		cols = 1
	}
	if rows < 1 {
		rows = 1
	}
	// Cell buckets live in a dense slice: with cell = radio range the cell
	// count is O(area/r²) = O(n·π/d), so the direct index is both smaller
	// and far cheaper than a hash map in the insert/query hot loops.
	return &Grid{
		bounds: bounds,
		cell:   cellSize,
		cols:   cols,
		rows:   rows,
		cells:  make([][]int, cols*rows),
	}
}

// Reset re-shapes g over new bounds and cell size and removes all points,
// reusing the cell buckets and point storage. A grid owned by a per-worker
// workspace is Reset once per replicate instead of rebuilt with NewGrid, so
// steady-state topology sampling allocates nothing.
func (g *Grid) Reset(bounds Rect, cellSize float64) {
	if cellSize <= 0 {
		panic("geom: non-positive grid cell size")
	}
	cols := int(math.Ceil(bounds.Width()/cellSize)) + 1
	rows := int(math.Ceil(bounds.Height()/cellSize)) + 1
	if cols < 1 {
		cols = 1
	}
	if rows < 1 {
		rows = 1
	}
	g.bounds = bounds
	g.cell = cellSize
	g.cols = cols
	g.rows = rows
	if cap(g.cells) < cols*rows {
		g.cells = make([][]int, cols*rows)
	} else {
		g.cells = g.cells[:cols*rows]
		for i := range g.cells {
			g.cells[i] = g.cells[i][:0]
		}
	}
	g.points = g.points[:0]
}

// cellIndex maps a point to its flattened cell index, clamping points on or
// outside the boundary into the edge cells.
func (g *Grid) cellIndex(p Point) int {
	cx := int((p.X - g.bounds.MinX) / g.cell)
	cy := int((p.Y - g.bounds.MinY) / g.cell)
	if cx < 0 {
		cx = 0
	}
	if cx >= g.cols {
		cx = g.cols - 1
	}
	if cy < 0 {
		cy = 0
	}
	if cy >= g.rows {
		cy = g.rows - 1
	}
	return cy*g.cols + cx
}

// Insert adds p and returns its id (dense, starting at 0).
func (g *Grid) Insert(p Point) int {
	id := len(g.points)
	g.points = append(g.points, p)
	ci := g.cellIndex(p)
	g.cells[ci] = append(g.cells[ci], id)
	return id
}

// Len returns the number of stored points.
func (g *Grid) Len() int { return len(g.points) }

// Point returns the position of id.
func (g *Grid) Point(id int) Point { return g.points[id] }

// Within appends to dst the ids of all stored points q ≠ id with
// dist(point(id), q) <= radius, and returns the extended slice. radius must
// not exceed the grid cell size (callers construct the grid with cell =
// radio range, so this always holds in practice).
func (g *Grid) Within(id int, radius float64, dst []int) []int {
	if radius > g.cell+1e-9 {
		panic("geom: query radius exceeds grid cell size")
	}
	p := g.points[id]
	r2 := radius * radius
	// Clamp exactly like cellIndex so queries from points on or outside the
	// boundary scan the same edge cells those points were stored in.
	cx := int((p.X - g.bounds.MinX) / g.cell)
	cy := int((p.Y - g.bounds.MinY) / g.cell)
	if cx < 0 {
		cx = 0
	}
	if cx >= g.cols {
		cx = g.cols - 1
	}
	if cy < 0 {
		cy = 0
	}
	if cy >= g.rows {
		cy = g.rows - 1
	}
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			x, y := cx+dx, cy+dy
			if x < 0 || x >= g.cols || y < 0 || y >= g.rows {
				continue
			}
			for _, other := range g.cells[y*g.cols+x] {
				if other == id {
					continue
				}
				if p.Dist2(g.points[other]) <= r2 {
					dst = append(dst, other)
				}
			}
		}
	}
	return dst
}

// Move updates the position of id, rebucketing it if it crossed a cell
// boundary. Used by mobility models.
func (g *Grid) Move(id int, to Point) {
	from := g.points[id]
	oldCell := g.cellIndex(from)
	newCell := g.cellIndex(to)
	g.points[id] = to
	if oldCell == newCell {
		return
	}
	bucket := g.cells[oldCell]
	for i, v := range bucket {
		if v == id {
			bucket[i] = bucket[len(bucket)-1]
			g.cells[oldCell] = bucket[:len(bucket)-1]
			break
		}
	}
	g.cells[newCell] = append(g.cells[newCell], id)
}

// ExpectedDegree returns the average node degree predicted by the Poisson
// point process approximation for n nodes uniformly placed in area A with
// radio range r: each node sees on average (n−1)·πr²/A others (border
// effects ignored).
func ExpectedDegree(n int, area, radius float64) float64 {
	if n <= 1 || area <= 0 {
		return 0
	}
	return float64(n-1) * math.Pi * radius * radius / area
}

// RangeForDegree inverts ExpectedDegree: the radio range needed so that n
// uniformly placed nodes in the given area have average degree d. This is how
// the paper's "fixed average node degree d = 6 and 18" scenarios derive the
// transmission range for each network size.
func RangeForDegree(n int, area, d float64) float64 {
	if n <= 1 || d <= 0 {
		return 0
	}
	return math.Sqrt(d * area / (float64(n-1) * math.Pi))
}
