package topology

import (
	"clustercast/internal/geom"
	"clustercast/internal/graph"
)

// buildBand is one worker's strip of the parallel unit-disk sweep: the
// packed edges whose sweep anchor lies in the band's grid rows.
type buildBand struct {
	edges []uint64
}

// buildParallel constructs the same unit disk graph as the sequential
// sweep in build, with the distance tests sharded into contiguous
// grid-row bands across workers goroutines. Each band runs PairsRows over
// its rows into a private edge arena (the sweep only reads the grid), so
// the bands' edge lists partition exactly the grid's pair set. Degrees,
// offsets and the cursor fill then run sequentially over the arenas in
// band order, and the per-node segment sort is sharded again over ID
// strips. The final CSR is bit-identical to the sequential build for any
// worker count: the assembly insertion-sorts every neighbor segment, so
// the graph depends only on the edge set, never on discovery order.
func (ws *Workspace) buildParallel(positions []geom.Point, radius float64, workers int) *graph.Graph {
	n := len(positions)
	rows := ws.grid.Rows()
	ws.sh.ResetRange(rows, workers)
	k := ws.sh.K()
	if cap(ws.bands) < k {
		ws.bands = make([]buildBand, k)
	}
	bands := ws.bands[:k]
	sh := &ws.sh
	sh.Each(workers, func(s int) {
		bd := &bands[s]
		lo, hi := sh.Range(s)
		edges := bd.edges[:0]
		ws.grid.PairsRows(radius, lo, hi, func(u, v int) {
			edges = append(edges, uint64(u)<<32|uint64(v))
		})
		bd.edges = edges
	})

	// Sequential stitch: count degrees over the band arenas, prefix-sum,
	// cursor-fill — the same count-then-fill assembly as build, fed by the
	// band edge lists instead of the sweep callback.
	deg := ws.deg
	for i := range deg {
		deg[i] = 0
	}
	for s := range bands {
		for _, e := range bands[s].edges {
			deg[e>>32]++
			deg[e&0xffffffff]++
		}
	}
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
	for s := range bands {
		for _, e := range bands[s].edges {
			u, v := int(e>>32), int(e&0xffffffff)
			backing[cur[u]] = v
			cur[u]++
			backing[cur[v]] = u
			cur[v]++
		}
	}

	// Per-node segment sort, sharded over contiguous ID strips (disjoint
	// backing ranges, so the strips share nothing).
	sh.ResetRange(n, workers)
	sh.Each(workers, func(s int) {
		lo, hi := sh.Range(s)
		for u := lo; u < hi; u++ {
			sortShortPos(backing[off[u]:off[u+1]])
		}
	})
	ws.g.RenewCSR(off, backing)
	return &ws.g
}
