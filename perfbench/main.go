// Command perfbench runs one pass of a benchmark workload in its own
// process; run.py starts one per pass and reads the rusage of each.
//
// A pass is one of three modes:
//
//	-mode run    the job through the program's public entry points, untraced
//	-mode trace  the same job replayed layer by layer, recording spans
//	-mode setup  the job's set-up only, then exit
//
// Each mode prints "ready" on its own line once set-up is done and, as
// its last line, one JSON object with the pass's outputs: a digest per
// figure or stage result, the operations attempted, the failed checks
// and, in trace mode, the per-layer figures derived from the spans.
//
//	perfbench -workload figures -seed 2003 -mode run
//	perfbench -workload scale -seed 7 -mode trace -spans spans.jsonl
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"clustercast/internal/experiment"
	"clustercast/internal/stats"
)

// config is one pass's parsed command line.
type config struct {
	workload string
	seed     uint64
	mode     string
	tiny     bool
	spans    string
}

// rule is the replication rule: the paper's 99% CI within ±5%, or the
// light rule cmd/figures uses for -quick at self-test sizes.
func (c config) rule() stats.StopRule {
	if c.tiny {
		return stats.StopRule{Confidence: 0.95, RelHalfWidth: 0.15, MinReplicates: 10, MaxReplicates: 40}
	}
	return stats.PaperRule()
}

// output is the pass's result line.
type output struct {
	Workload   string             `json:"workload"`
	Seed       uint64             `json:"seed"`
	Mode       string             `json:"mode"`
	GoVersion  string             `json:"go_version"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Ops        int                `json:"ops"`
	Failures   []string           `json:"failures"`
	Digests    map[string]string  `json:"digests"`
	Results    map[string][]int   `json:"results,omitempty"`
	Layers     map[string]float64 `json:"layers,omitempty"`
}

// pass carries one pass's state through a job: the set-up signal, the
// outputs and, in trace mode, the span recorder.
type pass struct {
	mu  sync.Mutex
	cfg config
	out *output
	tr  *tracer // nil unless traced
}

// ready marks the end of set-up. In setup mode the pass ends here.
func (p *pass) ready() {
	fmt.Println("ready")
	if p.cfg.mode == "setup" {
		p.finish()
		os.Exit(0)
	}
}

// fail records a failed check of one operation; replicates on several
// workers may call it at once.
func (p *pass) fail(format string, args ...any) {
	p.mu.Lock()
	p.out.Failures = append(p.out.Failures, fmt.Sprintf(format, args...))
	p.mu.Unlock()
}

// finish derives the per-layer figures, writes the spans and prints the
// result line.
func (p *pass) finish() {
	if p.tr != nil {
		p.out.Layers = p.tr.layers()
		if p.cfg.spans != "" {
			if err := p.tr.writeSpans(p.cfg.spans); err != nil {
				p.fail("writing spans: %v", err)
			}
		}
	}
	b, err := json.Marshal(p.out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// jobs maps a workload name to its pass.
var jobs = map[string]func(p *pass){
	"figures": figuresJob,
	"scale":   scaleJob,
	"traffic": trafficJob,
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload: figures, scale or traffic")
	flag.Uint64Var(&cfg.seed, "seed", 2003, "root random seed of the workload's inputs")
	flag.StringVar(&cfg.mode, "mode", "run", "run, trace or setup")
	flag.BoolVar(&cfg.tiny, "tiny", false, "self-test sizes: small networks and the light replication rule")
	flag.StringVar(&cfg.spans, "spans", "", "trace mode: write the recorded spans (JSONL) to this file")
	flag.Parse()

	job, ok := jobs[cfg.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have figures, scale, traffic)\n", cfg.workload)
		os.Exit(2)
	}
	if cfg.mode != "run" && cfg.mode != "trace" && cfg.mode != "setup" {
		fmt.Fprintf(os.Stderr, "perfbench: unknown mode %q (have run, trace, setup)\n", cfg.mode)
		os.Exit(2)
	}
	p := &pass{cfg: cfg, out: &output{
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		Mode:       cfg.mode,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Failures:   []string{},
		Digests:    map[string]string{},
	}}
	if cfg.mode == "trace" {
		p.tr = newTracer()
	}
	job(p)
	p.finish()
}

// addFigure records a figure's digests and checks that every point is
// present: one operation per point.
func (p *pass) addFigure(f *experiment.Figure) {
	p.out.Digests[f.ID] = figureDigest(f)
	p.out.Digests[f.ID+".csv"] = sha(f.CSV())
	for _, s := range f.Series {
		for _, pt := range s.Points {
			p.out.Ops++
			if pt.Missing() {
				p.fail("%s/%s x=%g: missing point", f.ID, s.Name, pt.X)
			}
		}
	}
}

// figureDigest hashes every point's exact values, so two runs agree only
// if each mean, CI and replicate count is bit-identical.
func figureDigest(f *experiment.Figure) string {
	var b strings.Builder
	for _, s := range f.Series {
		b.WriteString(s.Name)
		for _, pt := range s.Points {
			fmt.Fprintf(&b, "|%x,%x,%x,%d", math.Float64bits(pt.X), math.Float64bits(pt.Mean),
				math.Float64bits(pt.CI), pt.Reps)
		}
		b.WriteString("\n")
	}
	return sha(b.String())
}

// intsDigest hashes a result list.
func intsDigest(v []int) string {
	s := make([]string, len(v))
	for i, x := range v {
		s[i] = strconv.Itoa(x)
	}
	return sha(strings.Join(s, ","))
}

func sha(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

// seconds converts nanoseconds.
func seconds(ns int64) float64 { return float64(ns) / float64(time.Second) }
