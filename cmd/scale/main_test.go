package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"clustercast/internal/obs"
)

func TestRunAllStages(t *testing.T) {
	var out bytes.Buffer
	cfg := config{n: 300, d: 12, seed: 11, reps: 2, workers: 1, stages: "static25,mocds,dynamic25"}
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

func TestRunUnknownStage(t *testing.T) {
	cfg := config{n: 100, d: 12, seed: 1, reps: 1, workers: 1, stages: "warp"}
	if err := run(cfg, &bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "unknown stage") {
		t.Fatalf("want unknown-stage error, got %v", err)
	}
}

// TestRunSampleErrorPropagates: an unsatisfiable topology spec must surface
// the generator's diagnosis (the attempt cap), not a generic shrug.
func TestRunSampleErrorPropagates(t *testing.T) {
	cfg := config{n: 400, d: 2, seed: 1, reps: 1, workers: 1, stages: "static25"}
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
	cfg := config{n: 100, d: 12, seed: 1, reps: 1, workers: 1, stages: "static25",
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
	cfg := config{n: 300, d: 12, seed: 11, reps: 2, workers: 2, stages: "dynamic25",
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
	if m.Tool != "scale" || m.Seed != 11 || m.Workers != 2 || m.Params["stages"] != "dynamic25" {
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
