// Command perfbench is fragalloc's end-to-end benchmark. It drives the
// public entry points of the system on three workloads and prints every
// metric by name, with its unit, as the last line of standard output:
//
//	paper-k8     TPC-DS, S=1, K=8 "4+4": fragalloc.Allocate then EvaluateStream
//	robust-acct  accounting, S=2, F=4361, K=8 "4+4": the robust path, heavy eval
//	allocd-drift an in-process allocd behind loopback HTTP replaying seeded drift
//
// Run it from the repository root through perfbench/run.sh, which builds it:
//
//	bash perfbench/run.sh --workload paper-k8 --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it records
// spans around every layer call and reports the per-layer metrics instead.
// See README.md in this directory for why each workload exists and what
// each metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is everything a workload run depends on. Every seed is an
// argument. --seed is the out-of-sample seed; the workload, in-sample and
// drift seeds default to the recorded instances (see README.md, "Seeds").
type config struct {
	Workload     string `json:"workload"`
	Seed         int64  `json:"seed"`
	Seconds      int    `json:"seconds"`
	Trace        bool   `json:"trace"`
	WorkloadSeed int64  `json:"workload_seed"`
	InSampleSeed int64  `json:"insample_seed"`
	DriftSeed    int64  `json:"drift_seed"`
	OutDir       string `json:"out_dir"`
}

// run is one workload execution: the metrics it measured plus its tallies
// of attempted and failed operations (a failed output check is a failed
// operation) and the deterministic counters the determinism gate compares.
type run struct {
	cfg       config
	e2e       map[string]metric
	layer     map[string]metric
	attempted int
	failed    int
	problems  []string
	// counters must repeat exactly at one seed (the determinism gate).
	counters map[string]float64
	// samples keeps the raw timings behind the medians, for the record.
	samples map[string][]float64
}

func newRun(cfg config) *run {
	return &run{cfg: cfg, e2e: map[string]metric{}, layer: map[string]metric{}, counters: map[string]float64{}, samples: map[string][]float64{}}
}

func (r *run) setE2E(name, unit string, v float64)   { r.e2e[name] = metric{v, unit} }
func (r *run) setLayer(name, unit string, v float64) { r.layer[name] = metric{v, unit} }

// fail records a failed operation with its reason.
func (r *run) fail(format string, args ...any) {
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// attempt counts one operation and, when err is non-nil, its failure.
func (r *run) attempt(what string, err error) {
	r.attempted++
	if err != nil {
		r.fail("%s: %v", what, err)
	}
}

var workloads = map[string]func(*run) error{
	"paper-k8":     runPaperK8,
	"robust-acct":  runRobustAcct,
	"allocd-drift": runAllocdDrift,
}

// defaultInSampleSeed is each workload's recorded in-sample seed. paper-k8
// and allocd-drift boot from the single f=1 scenario, which no seed
// changes. robust-acct uses seed 2, the seed whose instance spends the
// full node budget of the paper row, 450 B&B nodes (README.md, "Seeds").
var defaultInSampleSeed = map[string]int64{"paper-k8": 1, "robust-acct": 2, "allocd-drift": 1}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var cfg config
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&cfg.Workload, "workload", "", "workload: paper-k8, robust-acct or allocd-drift")
	fs.Int64Var(&cfg.Seed, "seed", 1, "seed of the out-of-sample scenarios")
	fs.IntVar(&cfg.Seconds, "seconds", 10, "length of the measuring window of the repeatable steps")
	fs.IntVar(&trace, "trace", 0, "1 records spans and reports the per-layer metrics")
	fs.Int64Var(&cfg.WorkloadSeed, "workload-seed", 1, "tpcds/accounting.WorkloadSeed (1 = the canonical workload)")
	fs.Int64Var(&cfg.InSampleSeed, "insample-seed", 0, "seed of the diversified in-sample scenarios (0 = the workload's recorded default)")
	fs.Int64Var(&cfg.DriftSeed, "drift-seed", 1, "seed of the allocd drift stream")
	fs.StringVar(&cfg.OutDir, "out", ".bench_build", "directory for results, traces, allocd state and the determinism ledger")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	cfg.Trace = trace == 1
	if cfg.InSampleSeed == 0 {
		cfg.InSampleSeed = defaultInSampleSeed[cfg.Workload]
	}
	body, ok := workloads[cfg.Workload]
	if !ok || (trace != 0 && trace != 1) || cfg.Seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload %s, -trace 0|1 and -seconds >= 1\n", strings.Join(workloadNames(), "|"))
		return 2
	}
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	r := newRun(cfg)
	env := environment(cfg.OutDir)
	if err := body(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.Workload, err)
		return 1
	}
	if err := gate(r, env); err != nil {
		r.fail("determinism gate: %v", err)
	}
	r.setLayer("check.fail_share", "share", float64(r.failed)/float64(max(r.attempted, 1)))

	rep := report{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.e2e}
	declared := endToEnd
	if cfg.Trace {
		rep.Metrics, declared = r.layer, perLayer
	}
	for _, m := range declared {
		if _, ok := rep.Metrics[m.name]; !ok {
			fmt.Fprintf(os.Stderr, "perfbench: %s did not report %s\n", cfg.Workload, m.name)
			return 1
		}
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", p)
	}
	if err := saveResult(r, env, rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: saving the result:", err)
	}
	envLine, _ := json.Marshal(env)
	fmt.Printf("env %s\n", envLine)
	printTable(rep.Metrics)
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func printTable(ms map[string]metric) {
	var names []string
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-28s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// saveResult keeps the full record of the run — configuration, environment,
// both metric sets and every problem found — next to the traces.
func saveResult(r *run, env map[string]string, rep report) error {
	dir := filepath.Join(r.cfg.OutDir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	rec := map[string]any{
		"config": r.cfg, "env": env, "report": rep, "end_to_end": r.e2e,
		"per_layer": r.layer, "counters": r.counters, "samples": r.samples, "problems": r.problems,
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%v-%s.json", r.cfg.Workload, r.cfg.Seed, r.cfg.Trace,
		time.Now().UTC().Format("20060102T150405.000"))
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}
