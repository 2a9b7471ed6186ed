// Command perfbench is the tcq benchmark: it generates a workload from a
// seed, drives tcq through its public entry points for a fixed time,
// checks every answer, and prints one JSON result line.
//
//	go run . --workload paper-mix --seed 1 --seconds 30 --trace 0
//
// --trace 0 prints the end-to-end metrics of an untraced run; --trace 1
// prints the per-layer metrics of a separate traced run. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd lists what a user of tcq sees, reported by every workload.
// The prefix names the clock behind a metric: host (this machine's CPU
// time, scaled to a reference speed (see speed.go), or memory) or sim
// (the simulated engine clock, deterministic per seed). setup_s is
// scaled host CPU time; ok_share rests on no clock.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"host.cpu_ms_p50", "ms"},
	{"host.cpu_ms_p99", "ms"},
	{"host.heap_mb_p95", "MB"},
	{"ok_share", "ratio"},
	{"sim.deadline_met_share", "ratio"},
	{"sim.ci_rel_halfwidth_p50", "ratio"},
	{"sim.ci_coverage", "ratio"},
}

// perLayer lists the per-layer metrics of the traced run. A layer a
// workload bypasses does no work there and reports 0.
var perLayer = []metricDef{
	{"workload.gen_ms", "ms"},
	{"catalog.build_ms", "ms"},
	{"catalog.hit_share", "ratio"},
	{"catalog.warm_ci_coverage", "ratio"},
	{"catalog.warm_deadline_met_share", "ratio"},
	{"tcq.parse_us", "us"},
	{"core.stage_us_p50", "us"},
	{"core.stage_us_p95", "us"},
	{"core.stages_per_op", "count"},
	{"core.outside_stages_us", "us"},
	{"timectrl.plan_us_per_stage", "us"},
	{"timectrl.search_iters_per_stage", "count"},
	{"timectrl.overshoot_p50", "ratio"},
	{"sampling.draw_us_per_stage", "us"},
	{"sampling.blocks_per_op", "count"},
	{"exec.load_stage_us", "us"},
	{"exec.advance_stage_us", "us"},
	{"exec.comparisons_per_op", "count"},
	{"exec.tuples_read_per_op", "count"},
	{"exec.temp_bytes_per_op", "bytes"},
	{"estimator.estimate_us_per_stage", "us"},
	{"cost.observe_us_per_stage", "us"},
	{"gc.alloc_mb_per_op", "MB"},
	{"gc.allocs_per_op", "count"},
	{"gc.cycles_per_op", "count"},
	{"gc.pause_ms_total", "ms"},
	{"sched.admission_wait_us_p50", "us"},
	{"sched.admission_wait_us_p99", "us"},
	{"sched.retries_per_req", "count"},
	{"server.decode_us_p50", "us"},
	{"server.decode_us_p95", "us"},
	{"server.plan_us_p50", "us"},
	{"server.plan_us_p95", "us"},
	{"server.eval_us_p50", "us"},
	{"server.eval_us_p95", "us"},
	{"server.finalize_us_p50", "us"},
	{"server.finalize_us_p95", "us"},
	{"server.stream_write_us_p50", "us"},
	{"server.stream_write_us_p95", "us"},
	{"server.flush_us_p50", "us"},
	{"server.flush_us_p95", "us"},
	{"server.wall_us_p50", "us"},
	{"server.wall_us_p95", "us"},
	{"client.wall_ms_p50", "ms"},
	{"client.wall_ms_p99", "ms"},
	{"client.unattributed_us_p50", "us"},
	{"client.unattributed_us_p95", "us"},
	{"loadgen.lag_ms_p99", "ms"},
	{"loadgen.max_rps", "1/s"},
	{"trace.overhead_pct", "%"},
	{"replay.queries", "count"},
	{"replay.mismatches", "count"},
}

// runConfig is one invocation's settings.
type runConfig struct {
	seed    int64
	seconds time.Duration
	trace   bool
}

// outcome is what a workload run measured.
type outcome struct {
	attempted, failed int64
	// mismatches are failed correctness checks; any one fails the run.
	mismatches []string
	metrics    map[string]float64
	// missing names percentiles the sample could not support.
	missing []string
}

func newOutcome() *outcome { return &outcome{metrics: map[string]float64{}} }

// pct records the q-percentile of xs (times scale) under name, or marks
// it missing when fewer than minTail samples lie beyond it.
func (o *outcome) pct(name string, xs []float64, q, scale float64) {
	v, ok := percentile(xs, q)
	if !ok {
		o.missing = append(o.missing, name)
		return
	}
	o.metrics[name] = v * scale
}

func (o *outcome) mismatch(format string, args ...interface{}) {
	o.mismatches = append(o.mismatches, fmt.Sprintf(format, args...))
}

type workloadDef struct {
	name string
	run  func(runConfig) (*outcome, error)
}

var workloads = []workloadDef{
	{"paper-mix", runPaperMix},
	{"join-large", runJoinLarge},
	{"serve-mix", runServeMix},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// buildResult selects the metric set for the run kind and checks that
// every metric in it was measured.
func buildResult(o *outcome, trace bool) (*result, error) {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	missing := map[string]bool{}
	for _, m := range o.missing {
		missing[m] = true
	}
	res := &result{
		Correct:   len(o.mismatches) == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metricValue{},
	}
	var absent []string
	for _, d := range defs {
		v, ok := o.metrics[d.name]
		if missing[d.name] || (!ok && !trace) || math.IsNaN(v) || math.IsInf(v, 0) {
			absent = append(absent, d.name)
			continue
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(absent) > 0 {
		sort.Strings(absent)
		return nil, fmt.Errorf("not measured (too few samples or no data): %s", strings.Join(absent, ", "))
	}
	if res.Attempted < 1 {
		return nil, errors.New("no operation attempted")
	}
	return res, nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: paper-mix, join-large or serve-mix")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 30, "length of the measured region")
	traced := fs.Int("trace", 0, "0: end-to-end metrics (untraced run); 1: per-layer metrics (traced run)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload {paper-mix|join-large|serve-mix}, --seconds > 0, --trace 0|1\n")
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *traced == 1}
	o, err := w.run(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	for _, m := range o.mismatches {
		fmt.Fprintf(stderr, "perfbench: %s: correctness check failed: %s\n", w.name, m)
	}
	res, err := buildResult(o, cfg.trace)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}
