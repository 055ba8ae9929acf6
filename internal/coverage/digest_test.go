package coverage

import (
	"reflect"
	"strconv"
	"testing"

	"clustercast/internal/cluster"
	"clustercast/internal/geom"
	"clustercast/internal/graph"
	"clustercast/internal/rng"
	"clustercast/internal/topology"
)

// requireSameDigest asserts Reset reproduced the oracle's digests bit for
// bit: every CH1 view and every CH2 entry list, per node.
func requireSameDigest(t *testing.T, want, got *Builder, n int, ctx string) {
	t.Helper()
	for v := 0; v < n; v++ {
		if !reflect.DeepEqual(want.CH1(v), got.CH1(v)) {
			t.Fatalf("%s: CH1(%d) differs\nwant %v\ngot  %v", ctx, v, want.CH1(v), got.CH1(v))
		}
		w, g := want.CH2Entries(v), got.CH2Entries(v)
		if len(w) != len(g) {
			t.Fatalf("%s: CH2(%d) length %d != %d\nwant %v\ngot  %v", ctx, v, len(g), len(w), w, g)
		}
		for i := range w {
			if w[i] != g[i] {
				t.Fatalf("%s: CH2(%d) differs\nwant %v\ngot  %v", ctx, v, w, g)
			}
		}
	}
}

// Reset matches the sort-then-dedupe oracle bit for bit across modes,
// densities and seeds, with builder reuse between configurations.
func TestResetParallelEquivalence(t *testing.T) {
	var ref oracleBuilder
	var got Builder
	cws := cluster.NewWorkspace()
	for _, tc := range []struct {
		n    int
		deg  float64
		seed uint64
	}{
		{1, 1, 7}, {2, 1, 7}, {40, 4, 1}, {200, 8, 2}, {500, 18, 3}, {1000, 30, 4},
	} {
		r := rng.New(tc.seed)
		nw, err := topology.Generate(topology.Config{
			N: tc.n, Bounds: geom.Square(100), AvgDegree: tc.deg,
		}, r)
		if err != nil {
			t.Fatal(err)
		}
		cl := cws.LowestID(nw.G)
		for _, mode := range []Mode{Hop25, Hop3} {
			ref.Reset(nw.G, cl, mode)
			got.Reset(nw.G, cl, mode)
			requireSameDigest(t, &ref.Builder, &got, tc.n, mode.String())
		}
	}
}

// requireSameCoverage asserts both builders serve the same coverage set
// and connectors for every head. Assembly shares the builder's mark array
// with Reset's CH_HOP2 pass, so this also checks that the two uses of the
// epoch stamps never see each other's marks.
func requireSameCoverage(t *testing.T, want, got *Builder, cl *cluster.Clustering, ctx string) {
	t.Helper()
	var cw, cg Coverage
	for _, h := range cl.Heads {
		want.OfReuse(h, &cw)
		got.OfReuse(h, &cg)
		if !cw.C2.Equal(cg.C2) || !cw.C3.Equal(cg.C3) {
			t.Fatalf("%s: coverage sets of head %d differ", ctx, h)
		}
		if len(cw.Conns) != len(cg.Conns) {
			t.Fatalf("%s: head %d: %d connectors != %d", ctx, h, len(cg.Conns), len(cw.Conns))
		}
		for i := range cw.Conns {
			a, b := &cw.Conns[i], &cg.Conns[i]
			if a.V != b.V || !reflect.DeepEqual(a.Direct, b.Direct) || !reflect.DeepEqual(a.Indirect, b.Indirect) {
				t.Fatalf("%s: head %d connector %d differs", ctx, h, i)
			}
		}
	}
}

// A builder digested by Reset serves the same coverage sets as one
// digested by the oracle — the assembly paths downstream of the digests
// see identical inputs.
func TestResetParallelCoverageAgrees(t *testing.T) {
	r := rng.New(11)
	nw, err := topology.Generate(topology.Config{
		N: 600, Bounds: geom.Square(100), AvgDegree: 14,
	}, r)
	if err != nil {
		t.Fatal(err)
	}
	cl := cluster.NewWorkspace().LowestID(nw.G)
	var ref oracleBuilder
	var got Builder
	for _, mode := range []Mode{Hop25, Hop3} {
		ref.Reset(nw.G, cl, mode)
		got.Reset(nw.G, cl, mode)
		requireSameCoverage(t, &ref.Builder, &got, cl, mode.String())
	}
}

// Fuzz: Reset vs the oracle across (n, density, seed, mode), digests and
// served coverage sets, with both builders reused across inputs.
func FuzzResetParallelAgree(f *testing.F) {
	f.Add(uint(50), uint(8), uint64(1))
	f.Add(uint(200), uint(16), uint64(9))
	f.Add(uint(3), uint(1), uint64(3))
	var ref oracleBuilder
	var got Builder
	cws := cluster.NewWorkspace()
	f.Fuzz(func(t *testing.T, n, deg uint, seed uint64) {
		n = 1 + n%300
		deg = deg % 24
		r := rng.New(seed)
		nw, err := topology.Generate(topology.Config{
			N: int(n), Bounds: geom.Square(100), AvgDegree: float64(deg),
		}, r)
		if err != nil {
			t.Skip()
		}
		cl := cws.LowestID(nw.G)
		for _, mode := range []Mode{Hop25, Hop3} {
			ref.Reset(nw.G, cl, mode)
			got.Reset(nw.G, cl, mode)
			requireSameDigest(t, &ref.Builder, &got, int(n), mode.String())
			requireSameCoverage(t, &ref.Builder, &got, cl, mode.String())
		}
	})
}

// BenchmarkCoverageDigest times production Reset against the oracle on a
// reused builder (the per-worker workspace path) at paper to scale-out
// sizes, plus one fresh-builder row at the storm figure's n=80, where
// dynamicb.New builds a new builder every replicate.
func BenchmarkCoverageDigest(b *testing.B) {
	for _, n := range []int{20, 100, 1000, 100000} {
		if n > 1000 && testing.Short() {
			continue
		}
		g, cl := digestInput(b, n)
		for _, m := range []Mode{Hop25, Hop3} {
			prefix := "n=" + strconv.Itoa(n) + "/" + m.String() + "/"
			b.Run(prefix+"reset", func(b *testing.B) {
				var bld Builder
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					bld.Reset(g, cl, m)
				}
			})
			b.Run(prefix+"oracle", func(b *testing.B) {
				var bld oracleBuilder
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					bld.Reset(g, cl, m)
				}
			})
		}
	}
	g, cl := digestInput(b, 80)
	b.Run("n=80/2.5-hop/fresh-reset", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			digestSink = NewBuilder(g, cl, Hop25)
		}
	})
	b.Run("n=80/2.5-hop/fresh-oracle", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bld := &oracleBuilder{}
			bld.Reset(g, cl, Hop25)
			digestSink = &bld.Builder
		}
	})
}

// digestSink keeps the fresh-builder rows' builders on the heap, as in
// dynamicb.New.
var digestSink *Builder

// digestInput samples a connected d=18 network and its lowest-ID
// clustering for the digest benchmark.
func digestInput(b *testing.B, n int) (*graph.Graph, *cluster.Clustering) {
	nw, err := topology.Generate(topology.Config{
		N: n, Bounds: geom.Square(100), AvgDegree: 18, RequireConnected: true,
	}, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	return nw.G, cluster.NewWorkspace().LowestID(nw.G)
}
