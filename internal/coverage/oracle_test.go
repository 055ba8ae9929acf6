package coverage

import (
	"clustercast/internal/cluster"
	"clustercast/internal/graph"
)

// oracleBuilder carries the straightforward CH_HOP1/CH_HOP2 digest that
// production Builder.Reset must reproduce bit for bit: the per-node views
// it publishes are the reference the equivalence tests and the fuzz
// target compare against, and BenchmarkCoverageDigest times it. It
// embeds a Builder so the served views and coverage assembly are the
// production accessors, and adds the buffers only this digest uses.
type oracleBuilder struct {
	Builder
	cnt        []int
	scratch    []Hop2Entry
	ch2backing []Hop2Entry
}

// Reset is the sort-then-dedupe digest: it collects every raw CH_HOP2
// candidate, sorts by (W, R) and keeps the first entry per clusterhead.
func (b *oracleBuilder) Reset(g *graph.Graph, cl *cluster.Clustering, mode Mode) {
	n := g.N()
	b.g, b.cl, b.mode = g, cl, mode
	if cap(b.ch1) < n {
		b.ch1 = make([][]int, n)
		b.ch2 = make([][]Hop2Entry, n)
	}
	b.ch1 = b.ch1[:n]
	b.ch2 = b.ch2[:n]
	for v := range b.ch2 {
		b.ch2[v] = nil
	}

	// CH_HOP1 digests: ch1[v] is exactly the head-neighbors of v, so the
	// pass iterates the heads and scatters each head into its neighbors'
	// lists (count, prefix-sum, cursor fill) instead of testing IsHead on
	// all 2m neighbor entries — only edges incident to a clusterhead are
	// touched, a ~(k/n)·2m fraction of the graph. Heads come ascending in
	// cl.Heads and each head appears once, so every ch1[v] is sorted and
	// duplicate-free by construction.
	if cap(b.cnt) < n+1 {
		b.cnt = make([]int, n+1)
	}
	cnt := b.cnt[:n+1]
	for i := range cnt {
		cnt[i] = 0
	}
	total := 0
	for _, h := range cl.Heads {
		for _, v := range g.Neighbors(h) {
			cnt[v]++
			total++
		}
	}
	if cap(b.ch1backing) < total {
		b.ch1backing = make([]int, total)
	}
	backing := b.ch1backing[:total]
	// Prefix-sum the counts into start offsets, publish the (still empty)
	// per-node views, then fill with per-node cursors.
	off := 0
	for v := 0; v < n; v++ {
		c := cnt[v]
		b.ch1[v] = backing[off : off+c : off+c]
		cnt[v] = off
		off += c
	}
	for _, h := range cl.Heads {
		for _, v := range g.Neighbors(h) {
			backing[cnt[v]] = h
			cnt[v]++
		}
	}
	b.ch1backing = backing

	// CH_HOP2 digests: collect candidate (w, r) entries into a reusable
	// scratch, sort by (w, r) and keep the lowest-ID relay per w. The
	// deduplicated entries are packed into one growing backing array —
	// earlier slices stay valid across reallocation, and the per-node
	// allocation disappears from this hot constructor.
	b.asm.ensure(n)
	if b.scratch == nil {
		b.scratch = make([]Hop2Entry, 0, 64)
	}
	scratch := b.scratch[:0]
	if cap(b.ch2backing) < n {
		b.ch2backing = make([]Hop2Entry, 0, n)
	}
	ch2backing := b.ch2backing[:0]
	for v := 0; v < n; v++ {
		if cl.IsHead(v) {
			continue
		}
		epoch := b.asm.stamps(1)
		mark := b.asm.mark
		for _, w := range b.ch1[v] {
			mark[w] = epoch
		}
		scratch = scratch[:0]
		for _, r := range g.Neighbors(v) {
			if cl.IsHead(r) {
				continue // CH_HOP1 messages come from non-clusterheads only
			}
			switch mode {
			case Hop25:
				// Only r's own clusterhead generates an entry.
				if w := cl.Head[r]; mark[w] != epoch {
					scratch = append(scratch, Hop2Entry{W: w, R: r})
				}
			case Hop3:
				// Every clusterhead r hears directly generates an entry.
				for _, w := range b.ch1[r] {
					if mark[w] != epoch {
						scratch = append(scratch, Hop2Entry{W: w, R: r})
					}
				}
			}
		}
		if len(scratch) == 0 {
			continue
		}
		sortEntries(scratch)
		start := len(ch2backing)
		for _, e := range scratch {
			if len(ch2backing) > start && ch2backing[len(ch2backing)-1].W == e.W {
				continue // keep the lowest-ID relay ("first entry wins")
			}
			ch2backing = append(ch2backing, e)
		}
		b.ch2[v] = ch2backing[start:len(ch2backing):len(ch2backing)]
	}
	b.scratch = scratch
	b.ch2backing = ch2backing
}

// sortEntries orders CH_HOP2 entries by (W, R). The lists are tiny (one
// entry per 2-hop clusterhead sighting), so a straight insertion sort beats
// the generic sort machinery in the builder's hot loop.
func sortEntries(es []Hop2Entry) {
	for i := 1; i < len(es); i++ {
		e := es[i]
		j := i - 1
		for j >= 0 && (es[j].W > e.W || (es[j].W == e.W && es[j].R > e.R)) {
			es[j+1] = es[j]
			j--
		}
		es[j+1] = e
	}
}
