package main

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"clustercast/internal/obs"
	"clustercast/internal/topology"
)

func TestRunAllStages(t *testing.T) {
	var out bytes.Buffer
	cfg := config{n: 300, d: 12, seed: 11, reps: 2, stages: "static25,mocds,dynamic25"}
	if err := run(cfg, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"static25", "mocds", "dynamic25", "median kernel", "memory:"} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
}

// TestRunResultsPinned pins every stage's per-replicate result at a fixed
// scenario, so any drift in sampling, election, the coverage digest,
// gateway selection or the dynamic broadcast fails here.
func TestRunResultsPinned(t *testing.T) {
	var out bytes.Buffer
	cfg := config{n: 2000, d: 12, seed: 2003, reps: 2, stages: "static25,mocds,dynamic25"}
	if err := run(cfg, &out); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, line := range strings.Split(out.String(), "\n") {
		if i := strings.Index(line, "result="); i >= 0 {
			f := strings.Fields(line)
			got = append(got, f[0]+" "+f[1]+" "+line[i:])
		}
	}
	want := []string{
		"static25 rep=0 result=1024",
		"static25 rep=1 result=1095",
		"mocds rep=0 result=1140",
		"mocds rep=1 result=1166",
		"dynamic25 rep=0 result=935",
		"dynamic25 rep=1 result=914",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("stage results drifted:\n got %q\nwant %q", got, want)
	}
}

// TestRunRejectsBadFlags: out-of-range sizes, replicate counts and degrees
// fail before any output or sampling.
func TestRunRejectsBadFlags(t *testing.T) {
	base := config{n: 100, d: 12, seed: 1, reps: 1, stages: "static25"}
	for _, tc := range []struct {
		name string
		mod  func(*config)
		want string
	}{
		{"n=0", func(c *config) { c.n = 0 }, "-n 0"},
		{"n<0", func(c *config) { c.n = -5 }, "-n -5"},
		{"reps=0", func(c *config) { c.reps = 0 }, "-reps 0"},
		{"reps<0", func(c *config) { c.reps = -2 }, "-reps -2"},
		{"d=NaN", func(c *config) { c.d = math.NaN() }, "-d NaN"},
		{"d=+Inf", func(c *config) { c.d = math.Inf(1) }, "-d +Inf"},
		{"d=0", func(c *config) { c.d = 0 }, "-d 0"},
		{"d<0", func(c *config) { c.d = -3 }, "-d -3"},
	} {
		cfg := base
		tc.mod(&cfg)
		var out bytes.Buffer
		err := run(cfg, &out)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: want error containing %q, got %v", tc.name, tc.want, err)
		}
		if out.Len() != 0 {
			t.Errorf("%s: wrote output before failing:\n%s", tc.name, out.String())
		}
	}
}

func TestRunUnknownStage(t *testing.T) {
	cfg := config{n: 100, d: 12, seed: 1, reps: 1, stages: "warp"}
	if err := run(cfg, &bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "unknown stage") {
		t.Fatalf("want unknown-stage error, got %v", err)
	}
}

// TestRunSampleErrorPropagates: an unsatisfiable topology spec must surface
// the generator's diagnosis (the attempt cap), not a generic shrug.
func TestRunSampleErrorPropagates(t *testing.T) {
	cfg := config{n: 400, d: 2, seed: 1, reps: 1, stages: "static25"}
	err := run(cfg, &bytes.Buffer{})
	if err == nil {
		t.Fatal("sparse spec unexpectedly sampled a connected topology")
	}
	if !strings.Contains(err.Error(), "attempts") {
		t.Fatalf("error lost the generator diagnosis: %v", err)
	}
	if !strings.Contains(err.Error(), "stage static25") {
		t.Fatalf("error lost the stage context: %v", err)
	}
}

func TestRunTraceNeedsDynamicStage(t *testing.T) {
	cfg := config{n: 100, d: 12, seed: 1, reps: 1, stages: "static25",
		trace: filepath.Join(t.TempDir(), "t.jsonl")}
	if err := run(cfg, &bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "dynamic25") {
		t.Fatalf("want dynamic25-required error, got %v", err)
	}
}

// TestRunManifestAndTrace: the manifest records per-stage wall/alloc stats
// and the trace reconciles with the printed forward-node count.
func TestRunManifestAndTrace(t *testing.T) {
	dir := t.TempDir()
	mpath := filepath.Join(dir, "manifest.json")
	tpath := filepath.Join(dir, "trace.jsonl")
	var out bytes.Buffer
	cfg := config{n: 300, d: 12, seed: 11, reps: 2, stages: "dynamic25",
		manifest: mpath, trace: tpath}
	if err := run(cfg, &out); err != nil {
		t.Fatal(err)
	}
	if obs.Enabled() {
		t.Fatal("run left the obs layer enabled")
	}

	m, err := obs.ReadManifest(mpath)
	if err != nil {
		t.Fatal(err)
	}
	if m.Tool != "scale" || m.Seed != 11 || m.Params["stages"] != "dynamic25" {
		t.Fatalf("manifest identity wrong: %+v", m)
	}
	stages := map[string]obs.StageStat{}
	for _, st := range m.Stages {
		stages[st.Name] = st
	}
	for _, name := range []string{"dynamic25.sample", "dynamic25.kernel"} {
		st, ok := stages[name]
		if !ok || st.Count != 2 || st.WallNs <= 0 {
			t.Fatalf("stage %s missing or implausible: %+v (have %v)", name, st, m.Stages)
		}
	}
	if stages["dynamic25.kernel"].AllocBytes <= 0 {
		t.Fatalf("kernel stage has no alloc accounting: %+v", stages["dynamic25.kernel"])
	}

	f, err := os.Open(tpath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := obs.ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("trace is empty")
	}
	senders := map[int]bool{}
	for _, ev := range events {
		if ev.Kind == obs.EvSend {
			senders[ev.Node] = true
		}
	}
	// rep 0 prints "result=<forward count>"; the trace's distinct senders
	// must match it.
	var repLine string
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.Contains(line, "rep=0") {
			repLine = line
			break
		}
	}
	want := strings.TrimSpace(repLine[strings.Index(repLine, "result=")+len("result="):])
	if got := len(senders); want == "" || want != strconv.Itoa(got) {
		t.Fatalf("trace senders %d != printed result %q", got, want)
	}
}

// TestMedian: an even rep count takes the mean of the two middle kernel
// times, not the upper one; input order does not matter.
func TestMedian(t *testing.T) {
	ms := func(v ...int) []time.Duration {
		out := make([]time.Duration, len(v))
		for i, x := range v {
			out[i] = time.Duration(x) * time.Millisecond
		}
		return out
	}
	for _, tc := range []struct {
		in   []time.Duration
		want time.Duration
	}{
		{nil, 0},
		{ms(7), 7 * time.Millisecond},
		{ms(30, 10), 20 * time.Millisecond},
		{ms(40, 10, 30, 20), 25 * time.Millisecond},
		{ms(5, 1, 3), 3 * time.Millisecond},
	} {
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// TestRunTinyDensityBoundedMemory: `scale -n 10 -d 1e-9 -reps 1 -stages static25` samples with a
// range far below the node spacing. Sizing the sampler's cells by the
// range alone asked for ~678 GB and died with a fatal out-of-memory; the
// run must instead end with the generator's disconnected error after
// allocating little.
func TestRunTinyDensityBoundedMemory(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := run(config{n: 10, d: 1e-9, seed: 2003, reps: 1, stages: "static25"}, &bytes.Buffer{})
	runtime.ReadMemStats(&after)
	if !errors.Is(err, topology.ErrDisconnected) {
		t.Fatalf("want the disconnected-sample error, got %v", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<20 {
		t.Fatalf("allocated %d MiB, want under 64", got>>20)
	}
}
