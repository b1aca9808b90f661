// Command perfbench is TIPSY's end-to-end benchmark. It runs one named
// workload for a fixed wall-clock budget, checks the program's outputs
// against references it computes itself, and prints one JSON object as
// the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics listed in
// BENCHMARK.json; with -trace 1 the run records spans around every
// call into a layer and prints the per-layer metrics instead, writing
// the spans and a per-layer summary under -out.
//
// Workloads (see README.md for why each was chosen):
//
//	wire_cycle       paper-scale simulate → IPFIX export → decode →
//	                 aggregate → drain → window → train → score
//	sliding_retrain  small environment, ingested during set-up; the
//	                 pass slides an 8-day training window a day at a time
//	serve_whatif     the real tipsyd binary, driven over loopback HTTP
//	                 by a closed-loop CMS-style client
//
// Run it through run.sh, which builds this package and tipsyd first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark's caller parses.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	seconds float64
	tr      *tracer // nil unless -trace 1
	tipsyd  string  // path of the tipsyd binary (serve_whatif only)
}

// outcome is what a workload hands back: end-to-end metrics, per-layer
// metrics (filled only when traced), operation counts, and the list of
// reference-check failures (empty means correct).
type outcome struct {
	e2e       map[string]metric
	layers    map[string]float64
	attempted int64
	failed    int64
	problems  []string
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]metric{}, layers: map[string]float64{}}
}

func (o *outcome) set(name string, v float64, unit string) { o.e2e[name] = metric{v, unit} }

// layer records a per-layer metric; its unit comes from perLayer.
func (o *outcome) layer(name string, v float64) { o.layers[name] = v }

// check records a reference-check failure unless ok.
func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// checkErr records err as a reference-check failure.
func (o *outcome) checkErr(what string, err error) {
	if err != nil {
		o.problems = append(o.problems, fmt.Sprintf("%s: %v", what, err))
	}
}

var workloads = map[string]func(runConfig) (*outcome, error){
	"wire_cycle":      runWireCycle,
	"sliding_retrain": runSlidingRetrain,
	"serve_whatif":    runServeWhatif,
}

// endToEnd names every metric an untraced run must print.
var endToEnd = []string{
	"setup_s", "pass_cpu_s", "peak_rss_mb",
	"acc_k1", "acc_k3", "acc_k1_outage", "acc_k3_outage",
}

// perLayer lists the per-layer metrics with their units. A layer that
// does no work in a workload reports 0.
var perLayer = []struct{ name, unit string }{
	{"netsim.new.busy_s", "s"}, {"netsim.busy_s", "s"}, {"netsim.cpu_s", "s"}, {"netsim.records", "count"},
	{"ipfix.export.busy_s", "s"}, {"ipfix.export.msgs", "count"}, {"ipfix.export.allocs_per_rec", "allocs/rec"},
	{"ipfix.decode.busy_s", "s"}, {"ipfix.decode.records", "count"}, {"ipfix.decode.allocs_per_msg", "allocs/msg"},
	{"pipeline.aggregate.busy_s", "s"}, {"pipeline.aggregate.allocs_per_rec", "allocs/rec"},
	{"pipeline.drain.busy_s", "s"}, {"pipeline.drain.aggregates", "count"},
	{"dataset.window.busy_s", "s"}, {"dataset.outages.busy_s", "s"},
	{"core.train.busy_s", "s"}, {"core.train.allocs", "count"}, {"core.train.tuples", "count"},
	{"core.predict.queries", "count"}, {"core.predict.ns_per_query", "ns"},
	{"eval.score.busy_s", "s"}, {"eval.score.groups", "count"}, {"eval.score.allocs_per_group", "allocs/group"},
	{"tipsyd.feature_encode.p50_us", "us"}, {"tipsyd.predict.p50_us", "us"}, {"tipsyd.handler.p50_us", "us"},
	{"tipsyd.rung.ensemble.p50_us", "us"},
	{"tipsyd.answers.ensemble", "count"}, {"tipsyd.answers.historical", "count"},
	{"tipsyd.answers.geo", "count"}, {"tipsyd.answers.none", "count"},
	{"tipsyd.http.p50_us", "us"}, {"monitor.predictions", "count"},
	{"tipsyd.cpu_s", "s"}, {"loadgen.cpu_s", "s"},
	{"loadgen.lookup_p50_ms", "ms"}, {"loadgen.lookup_p99_ms", "ms"},
	{"loadgen.whatif_p50_ms", "ms"}, {"loadgen.whatif_p99_ms", "ms"},
	{"runtime.gc_cycles", "count"}, {"runtime.gc_pause_s", "s"},
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: wire_cycle, sliding_retrain or serve_whatif")
		seed     = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds  = flag.Float64("seconds", 10, "measuring budget in seconds; whole passes run until it is spent")
		trace    = flag.Int("trace", 0, "1 records per-layer spans and prints the per-layer metrics")
		outDir   = flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for traced-run output")
		tipsyd   = flag.String("tipsyd", filepath.Join(".bench_build", "bin", "tipsyd"), "tipsyd binary for serve_whatif")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %v)\n", *workload, names)
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, tipsyd: *tipsyd}
	if *trace != 0 {
		cfg.tr = newTracer()
	}
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for i, p := range out.problems {
		if i == 20 {
			fmt.Fprintf(os.Stderr, "perfbench: ... and %d more failed checks\n", len(out.problems)-i)
			break
		}
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	res := result{
		Correct:   len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metric{},
	}
	if cfg.tr == nil {
		for _, n := range endToEnd {
			m, ok := out.e2e[n]
			if !ok {
				fmt.Fprintf(os.Stderr, "perfbench: workload %s did not measure %s\n", *workload, n)
				os.Exit(1)
			}
			res.Metrics[n] = m
		}
	} else {
		for _, l := range perLayer {
			res.Metrics[l.name] = metric{out.layers[l.name], l.unit}
		}
		stem := fmt.Sprintf("%s-seed%d", *workload, *seed)
		if err := cfg.tr.write(*outDir, stem, res.Metrics, out.e2e); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
	buf, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stdout, string(buf))
}

// deadline returns when a run that started measuring now must stop
// starting new passes.
func deadline(seconds float64) time.Time {
	return time.Now().Add(time.Duration(seconds * float64(time.Second)))
}
