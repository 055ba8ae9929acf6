package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"clustercast/internal/core"
)

func TestRunAllProtocols(t *testing.T) {
	var out bytes.Buffer
	cfg := config{n: 40, d: 10, seed: 3, source: -1, protocols: "all"}
	if err := run(cfg, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, proto := range []string{"flooding", "pdp", "dynamic-2.5", "mo-cds", "fwd-tree", "counter-3"} {
		if !strings.Contains(s, proto) {
			t.Fatalf("output missing protocol %q:\n%s", proto, s)
		}
	}
	if !strings.Contains(s, "100.0%") {
		t.Fatal("no protocol reported full delivery")
	}
}

func TestRunSelectedProtocols(t *testing.T) {
	var out bytes.Buffer
	cfg := config{n: 30, d: 8, seed: 5, source: 0, protocols: "flooding,dynamic-2.5"}
	if err := run(cfg, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "flooding") || !strings.Contains(s, "dynamic-2.5") {
		t.Fatalf("selected protocols missing:\n%s", s)
	}
	// The summary line mentions "mo-cds=…", so look for the table row form.
	if strings.Contains(s, "\nmo-cds ") || strings.Contains(s, "\npdp ") {
		t.Fatal("unselected protocol row printed")
	}
}

func TestRunUnknownProtocol(t *testing.T) {
	cfg := config{n: 20, d: 8, seed: 1, source: 0, protocols: "warp-drive"}
	if err := run(cfg, &bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "unknown protocol") {
		t.Fatalf("want unknown-protocol error, got %v", err)
	}
}

func TestRunSourceOutOfRange(t *testing.T) {
	cfg := config{n: 20, d: 8, seed: 1, source: 99, protocols: "flooding"}
	if err := run(cfg, &bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("want out-of-range error, got %v", err)
	}
}

func TestRunWire(t *testing.T) {
	var out bytes.Buffer
	cfg := config{n: 30, d: 8, seed: 7, source: 0, protocols: "flooding", wire: true}
	if err := run(cfg, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "wire protocol") ||
		!strings.Contains(out.String(), "HELLO=30") {
		t.Fatalf("wire summary missing:\n%s", out.String())
	}
}

func TestRunLoadSnapshot(t *testing.T) {
	// Save a snapshot via the topology API, then load it through the CLI
	// path.
	nw, err := core.NewRandomNetwork(core.NetworkSpec{N: 25, AvgDegree: 8, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "net.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.Topology.Save(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var out bytes.Buffer
	cfg := config{seed: 1, source: 0, protocols: "flooding", load: path}
	if err := run(cfg, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "n=25") {
		t.Fatalf("loaded network not reflected:\n%s", out.String())
	}
}

func TestRunLoadMissingFile(t *testing.T) {
	cfg := config{seed: 1, source: 0, protocols: "flooding", load: "/does/not/exist.json"}
	if err := run(cfg, &bytes.Buffer{}); err == nil {
		t.Fatal("missing snapshot must error")
	}
}

// cksum is the POSIX cksum(1) checksum: CRC-32 with polynomial
// 0x04C11DB7, MSB first, over the bytes and then their length, inverted.
// The recorded values below therefore match `manetsim ... | cksum`.
func cksum(b []byte) uint32 {
	var table [256]uint32
	for i := range table {
		c := uint32(i) << 24
		for k := 0; k < 8; k++ {
			if c&0x80000000 != 0 {
				c = c<<1 ^ 0x04C11DB7
			} else {
				c <<= 1
			}
		}
		table[i] = c
	}
	var crc uint32
	add := func(c byte) { crc = crc<<8 ^ table[byte(crc>>24)^c] }
	for _, c := range b {
		add(c)
	}
	for n := len(b); n > 0; n >>= 8 {
		add(byte(n))
	}
	return ^crc
}

// runCksum runs the command and returns its stdout's cksum and length.
func runCksum(t *testing.T, cfg config) (uint32, int, string) {
	t.Helper()
	var out bytes.Buffer
	if err := run(cfg, &out); err != nil {
		t.Fatal(err)
	}
	return cksum(out.Bytes()), out.Len(), out.String()
}

// TestRunDESByteIdentical: the calendar engines (timed rows, the wire
// protocol) reproduce the comparison table recorded when the scalar loops
// were the production engines, byte for byte — every protocol row, the
// wire-protocol section, and a churn fault schedule included.
func TestRunDESByteIdentical(t *testing.T) {
	for i, tc := range []struct {
		cfg  config
		sum  uint32
		size int
	}{
		// manetsim -n 40 -d 10 -seed 3 -protocols all -wire
		{config{n: 40, d: 10, seed: 3, source: -1, protocols: "all", wire: true}, 3132580994, 1028},
		// manetsim -n 30 -d 8 -seed 5 -source 0 -protocols all -faults mtbf=60,mttr=20
		{config{n: 30, d: 8, seed: 5, source: 0, protocols: "all", faults: "mtbf=60,mttr=20"}, 1497577170, 1117},
	} {
		sum, size, out := runCksum(t, tc.cfg)
		if sum != tc.sum || size != tc.size {
			t.Errorf("cfg %d: cksum %d %d, recorded %d %d:\n%s", i, sum, size, tc.sum, tc.size, out)
		}
	}
}

// TestRunTrafficReport: the -traffic flag appends a per-backbone load
// report, with the bytes recorded when the scalar multi-source loop was
// the production engine.
func TestRunTrafficReport(t *testing.T) {
	// manetsim -n 40 -d 10 -seed 3 -source 0 -protocols flooding -traffic proc=poisson,rate=0.3,flows=16
	cfg := config{n: 40, d: 10, seed: 3, source: 0, protocols: "flooding",
		traffic: "proc=poisson,rate=0.3,flows=16"}
	sum, size, s := runCksum(t, cfg)
	if !strings.Contains(s, "traffic workload:") || !strings.Contains(s, "throughput") {
		t.Fatalf("traffic report missing:\n%s", s)
	}
	for _, row := range []string{"flooding", "static-2.5", "dynamic-2.5", "mo-cds"} {
		if !strings.Contains(s, row) {
			t.Fatalf("traffic report missing backbone %q:\n%s", row, s)
		}
	}
	if sum != 47148721 || size != 618 {
		t.Fatalf("cksum %d %d, recorded 47148721 618:\n%s", sum, size, s)
	}
}

// TestRunTrafficDiscovery: discovery=1 switches to the route-discovery
// report.
func TestRunTrafficDiscovery(t *testing.T) {
	var out bytes.Buffer
	cfg := config{n: 40, d: 10, seed: 4, source: 0, protocols: "flooding",
		traffic: "proc=bursty,burst=2,every=12,flows=12,discovery=1"}
	if err := run(cfg, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "success") || !strings.Contains(s, "routelen") {
		t.Fatalf("discovery report missing:\n%s", s)
	}
}

// TestRunTrafficBadSpec: a malformed spec is a user error, not a panic.
func TestRunTrafficBadSpec(t *testing.T) {
	cfg := config{n: 20, d: 8, seed: 1, source: 0, protocols: "flooding", traffic: "proc=warp"}
	if err := run(cfg, &bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "-traffic") {
		t.Fatalf("want -traffic parse error, got %v", err)
	}
}

// TestRunBadSpecPrintsNothing: a -faults or -traffic spec that fails to
// parse or validate is rejected before any output or work — no network
// line, no protocol rows.
func TestRunBadSpecPrintsNothing(t *testing.T) {
	for _, cfg := range []config{
		{faults: "mtbf=NaN"},
		{faults: "mtbf=-1"},
		{faults: "part=0:10:x:Inf"},
		{traffic: "proc=poisson,rate=NaN,flows=4"},
		{traffic: "flows=0"},
		{faults: "mtbf=60", traffic: "proc=warp"},
	} {
		cfg.n, cfg.d, cfg.seed, cfg.source, cfg.protocols = 20, 8, 1, 0, "all"
		var out bytes.Buffer
		if err := run(cfg, &out); err == nil {
			t.Errorf("faults=%q traffic=%q: accepted", cfg.faults, cfg.traffic)
		}
		if out.Len() != 0 {
			t.Errorf("faults=%q traffic=%q: printed before failing:\n%s", cfg.faults, cfg.traffic, out.String())
		}
	}
}
