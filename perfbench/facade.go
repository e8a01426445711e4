package main

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"fragalloc"
	"fragalloc/internal/accounting"
	"fragalloc/internal/mip"
	"fragalloc/internal/model"
	"fragalloc/internal/tpcds"
)

// facadeSpec is one paper row driven through the public facade.
type facadeSpec struct {
	gen       func(seed int64) *model.Workload
	scenarios int // in-sample S
	fixed     int // FixedQueries F (partial clustering)
	k         int
	chunks    string
	group     string // the chunk spec of each exact group
	maxNodes  int
}

const (
	// outOfSample is the size of the verification set.
	outOfSample = 1000
	// parallelism is the worker count of Allocate and EvaluateStream: the
	// load generator may use at most nproc threads, and the reference
	// machine has two cores.
	parallelism = 2
	// The repeatable steps — set-up, evaluation, reads — run in rounds
	// across a measuring window of --seconds, at least minRounds times, and
	// report medians. Spreading the samples over the window matters more
	// than their number: the speed of a shared machine drifts on a scale of
	// seconds. The traced run alternates untraced and traced rounds, so four
	// rounds give it two of each. readBurst is the number of reads per round.
	minRounds = 4
	readBurst = 10
)

// window runs round at least minRounds times and until d has passed.
func window(d time.Duration, round func(i int) error) error {
	end := time.Now().Add(d)
	for i := 0; i < minRounds || time.Now().Before(end); i++ {
		if err := round(i); err != nil {
			return err
		}
	}
	return nil
}

// evaluator times EvaluateStream of one allocation over the out-of-sample
// set; every repeat must reproduce the first MeanGap bit for bit.
type evaluator struct {
	r          *run
	tr         *tracer
	parent     int
	w          *model.Workload
	a          *model.Allocation
	out        *model.ScenarioSet
	times      []float64
	gap        float64
	unservable int
}

func (e *evaluator) once() error {
	eid := e.tr.open("evaluate", e.parent, 0)
	t := time.Now()
	m, err := fragalloc.EvaluateStream(e.w, e.a, e.out, fragalloc.StreamOptions{Parallelism: parallelism})
	d := time.Since(t)
	e.tr.close(eid)
	e.r.attempt("evaluate", err)
	if err != nil {
		return fmt.Errorf("evaluate: %w", err)
	}
	e.times = append(e.times, secs(d))
	if len(e.times) == 1 {
		e.gap, e.unservable = m.MeanGap, m.Unservable
	} else if math.Float64bits(m.MeanGap) != math.Float64bits(e.gap) {
		e.r.fail("evaluation %d gave MeanGap %v, the first gave %v", len(e.times), m.MeanGap, e.gap)
	}
	return nil
}

// runPaperK8 is the ROADMAP baseline row: TPC-DS, S=1, K=8 "4+4", 150
// nodes. Two cold LP solves that hit the iteration limit dominate it, so it
// is where a fix of the cold-solve cliff shows and evaluation does not.
func runPaperK8(r *run) error {
	return runFacade(r, facadeSpec{gen: tpcds.WorkloadSeed, scenarios: 1, k: 8,
		chunks: "4+4", group: "4", maxNodes: 150})
}

// runRobustAcct is the robust path without the cliff: accounting, S=2,
// F=4361, K=8 "4+4", 150 nodes. Its evaluation over the Q=4461 flow graphs
// is heavy, so it is where eval and maxflow work shows.
func runRobustAcct(r *run) error {
	return runFacade(r, facadeSpec{gen: accounting.WorkloadSeed, scenarios: 2, fixed: 4361, k: 8,
		chunks: "4+4", group: "4", maxNodes: 150})
}

func runFacade(r *run, spec facadeSpec) error {
	cfg := r.cfg
	tr := newTracer(cfg.Trace)
	root := tr.open("run", 0, 0)

	// Set-up: generate the workload and both scenario sets.
	var w *model.Workload
	var in, out *model.ScenarioSet
	var setup, insample, oos []float64
	generate := func(tr *tracer) {
		t0 := time.Now()
		w = spec.gen(cfg.WorkloadSeed)
		t1 := time.Now()
		in = fragalloc.InSampleScenarios(w, spec.scenarios, fragalloc.DefaultPresence, cfg.InSampleSeed)
		t2 := time.Now()
		out = fragalloc.OutOfSampleScenarios(w, outOfSample, fragalloc.DefaultPresence, cfg.Seed)
		t3 := time.Now()
		setup = append(setup, secs(t3.Sub(t0)))
		insample = append(insample, secs(t2.Sub(t1)))
		oos = append(oos, secs(t3.Sub(t2)))
		sid := tr.add("setup", root, 0, t0, t3, "")
		tr.add("scenario.insample", sid, 0, t1, t2, "")
		tr.add("scenario.outofsample", sid, 0, t2, t3, "")
	}
	generate(tr)

	// Allocate once at the node budget; its split solves are traced through
	// the Logf hook.
	opt := fragalloc.Options{
		Chunks:       fragalloc.MustParseChunks(spec.chunks),
		FixedQueries: spec.fixed,
		Parallelism:  parallelism,
		MIP:          mip.Options{MaxNodes: spec.maxNodes},
	}
	aid := tr.open("allocate", root, 0)
	splits := newSplitLog(tr, aid, spec.chunks, spec.group)
	if splits != nil {
		opt.Logf = splits.logf
	}
	t0 := time.Now()
	res, err := fragalloc.Allocate(w, in, spec.k, opt)
	allocS := secs(time.Since(t0))
	tr.close(aid)
	r.attempt("allocate", err)
	if err != nil {
		return fmt.Errorf("allocate: %w", err)
	}
	a := res.Allocation

	// Output checks: the invariants, the evaluator's in-sample L̃, and the
	// checker itself against a corrupted copy of the result.
	cid := tr.open("check", root, 0)
	r.attempt("output check", checkResult(w, in, a, res.W, res.ReplicationFactor))
	m, err := fragalloc.EvaluateStream(w, a, in, fragalloc.StreamOptions{Parallelism: parallelism})
	if err == nil {
		err = checkInSampleL(spec.k, m.L)
	}
	r.attempt("in-sample evaluation", err)
	r.attempt("checker self-test", selfTest(w, in, a, res.W, res.ReplicationFactor))
	tr.close(cid)
	// Peak memory of the workload proper; the measuring rounds below only
	// regenerate inputs and re-read the result.
	peakMB := peakRSSMB()

	// A measuring round regenerates the inputs, evaluates the allocation
	// out of sample and encodes the allocation document that cmd/allocate
	// writes and allocd serves (the facade's read).
	ev := &evaluator{r: r, parent: root, w: w, a: a, out: out}
	var reads []float64
	var buf bytes.Buffer
	round := func(i int) error {
		rt := tr.round(i)
		t0 := time.Now()
		defer func() { tr.timeRound(rt != nil, time.Since(t0)) }()
		generate(rt)
		ev.tr = rt
		if err := ev.once(); err != nil {
			return err
		}
		for j := 0; j < readBurst; j++ {
			buf.Reset()
			t := time.Now()
			err := fragalloc.SaveJSONWriter(&buf, a)
			d := time.Since(t)
			r.attempt("read", err)
			reads = append(reads, d.Seconds()*1000)
			rt.add("read", root, 0, t, t.Add(d), "")
		}
		return nil
	}
	if err := window(time.Duration(cfg.Seconds)*time.Second, round); err != nil {
		return err
	}
	readBytes := buf.Len()
	evalS, gap, unservable := median(ev.times), ev.gap, ev.unservable

	r.setE2E("peak_rss_mb", "MB", peakMB)
	r.setE2E("setup_s", "s", median(setup))
	r.setE2E("allocate_s", "s", allocS)
	r.setE2E("evaluate_s", "s", evalS)
	r.setE2E("wv", "ratio", res.ReplicationFactor)
	r.setE2E("oos_gap", "share", gap)
	r.setE2E("adopt_p50_s", "s", allocS)
	r.setE2E("read_p50_ms", "ms", median(reads))
	r.setE2E("migrate_mb", "MB", storedBytes(w, a)/1e6)
	r.samples["evaluate_s"], r.samples["setup_s"], r.samples["read_ms"] = ev.times, setup, reads

	r.counters["simplex.lp_iters"] = float64(res.LPIters)
	r.counters["mip.bb_nodes"] = float64(res.BBNodes)
	r.counters["wv"] = res.ReplicationFactor
	r.counters["oos_gap"] = gap
	r.counters["core.optimal"] = float64(res.Outcomes.Optimal)
	r.counters["core.feasible"] = float64(res.Outcomes.Feasible)
	r.counters["core.degraded"] = float64(res.Outcomes.Degraded)
	fmt.Printf("%s: %d B&B nodes, %d LP pivots, W/V %.4f, oos gap %.4f, allocate %.2fs, evaluate %.3fs\n",
		cfg.Workload, res.BBNodes, res.LPIters, res.ReplicationFactor, gap, allocS, evalS)

	layerDefaults(r)
	r.setLayer("simplex.lp_iters", "count", float64(res.LPIters))
	r.setLayer("simplex.iters_per_node", "count", float64(res.LPIters)/float64(max(res.BBNodes, 1)))
	r.setLayer("simplex.iters_per_s", "1/s", float64(res.LPIters)/allocS)
	r.setLayer("mip.bb_nodes", "count", float64(res.BBNodes))
	r.setLayer("mip.max_gap", "ratio", res.MaxGap)
	r.setLayer("mip.nodes_per_s", "1/s", float64(res.BBNodes)/allocS)
	r.setLayer("core.optimal", "count", float64(res.Outcomes.Optimal))
	r.setLayer("core.feasible", "count", float64(res.Outcomes.Feasible))
	r.setLayer("core.degraded", "count", float64(res.Outcomes.Degraded))
	r.setLayer("core.degraded_delta", "ratio", res.DegradedDelta)
	r.setLayer("eval.unservable", "count", float64(unservable))
	r.setLayer("scenario.insample_s", "s", median(insample))
	r.setLayer("scenario.outofsample_s", "s", median(oos))
	readTail, readPct, nReads := tail(reads)
	r.setLayer("service.read_bytes", "bytes", float64(readBytes))
	r.setLayer("service.reads", "count", float64(nReads))
	r.setLayer("service.read_tail_ms", "ms", readTail)
	r.setLayer("service.read_tail_pct", "%", readPct)
	if tr == nil {
		return nil
	}

	splits.report(r)
	traceSerialEval(r, tr, root, w, a, out)
	tr.close(root)
	return finishTrace(r, tr, traceLayers)
}

// traceSerialEval times the evaluator's layers serially for the traced
// run: build once, then one WorstLoad per out-of-sample scenario.
func traceSerialEval(r *run, tr *tracer, parent int, w *model.Workload, a *model.Allocation, out *model.ScenarioSet) {
	t := time.Now()
	flow := fragalloc.NewEvaluator(w, a, 0)
	built := time.Now()
	for s, freq := range out.Frequencies {
		if _, err := flow.WorstLoad(freq); err != nil {
			r.fail("WorstLoad of scenario %d: %v", s, err)
			break
		}
	}
	done := time.Now()
	eid := tr.add("eval.serial", parent, 0, t, done, "")
	tr.add("eval.build", eid, 0, t, built, "")
	r.setLayer("eval.build_s", "s", secs(built.Sub(t)))
	r.setLayer("eval.worstload_us", "us", done.Sub(built).Seconds()*1e6/float64(out.S()))
	r.setLayer("eval.scenarios_per_s", "1/s", float64(out.S())/done.Sub(built).Seconds())
}

// selfTest feeds the checker a copy of the result with one routed share
// moved to a node that cannot run the query; the checker must reject it.
func selfTest(w *model.Workload, ss *model.ScenarioSet, a *model.Allocation, wBytes, wv float64) error {
	bad := corrupt(w, a)
	if bad == nil {
		return nil // every node can run every query: there is nothing to misroute
	}
	if checkResult(w, ss, bad, wBytes, wv) == nil {
		return fmt.Errorf("the checker accepted an allocation that routes a query to a node lacking its fragments")
	}
	return nil
}

// splitLog turns the Logf progress lines of core's recursive decomposition
// into spans: one per split solve, from "solving split" to "solved". The
// root split and the exact groups are told apart from the hierarchical
// hint pre-solves by their chunk spec.
type splitLog struct {
	tr          *tracer
	parent      int
	root, group string

	mu      sync.Mutex
	open    map[any]pending
	groupS  [2]float64 // exact groups by position: first leaf 0, then the other
	rootS   float64
	hintS   float64
	retries int
	nodes   int // B&B nodes of the root and group solves
}

type pending struct {
	start time.Time
	leaf  int
}

func newSplitLog(tr *tracer, parent int, root, group string) *splitLog {
	if tr == nil {
		return nil
	}
	return &splitLog{tr: tr, parent: parent, root: root, group: group, open: map[any]pending{}}
}

func (l *splitLog) logf(format string, args ...any) {
	now := time.Now()
	defer func() { l.tr.charge(time.Since(now)) }()
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case strings.HasPrefix(format, "core: solving split "):
		leaf, _ := args[len(args)-2].(int)
		l.open[args[0]] = pending{start: now, leaf: leaf}
	case strings.HasPrefix(format, "core: split ") && strings.Contains(format, " solved "):
		p, ok := l.open[args[0]]
		if !ok {
			return
		}
		delete(l.open, args[0])
		spec := fmt.Sprint(args[0])
		d := secs(now.Sub(p.start))
		if spec == l.root || spec == l.group {
			n, _ := args[len(args)-1].(int)
			l.nodes += n
		}
		switch spec {
		case l.root:
			l.rootS += d
			l.tr.add("split.root", l.parent, 0, p.start, now, spec)
		case l.group:
			g := 0
			if p.leaf > 0 {
				g = 1
			}
			l.groupS[g] += d
			l.tr.add("split.group", l.parent, 0, p.start, now, fmt.Sprintf("%s@%d", spec, p.leaf))
		default:
			l.hintS += d
			l.tr.add("split.hint", l.parent, 0, p.start, now, spec)
		}
	case strings.Contains(format, "retrying with escalated iteration limits"):
		l.retries++
	}
}

// report sets the split metrics: the root split, each exact group by its
// first leaf, the hint pre-solves, and the critical path root + slowest
// group (at Parallelism 2 the slowest group sets the time).
func (l *splitLog) report(r *run) {
	l.mu.Lock()
	defer l.mu.Unlock()
	r.setLayer("core.split_s.root", "s", l.rootS)
	r.setLayer("core.split_s.g0", "s", l.groupS[0])
	r.setLayer("core.split_s.g1", "s", l.groupS[1])
	r.setLayer("core.hint_s", "s", l.hintS)
	r.setLayer("core.critical_path_s", "s", l.rootS+max(l.groupS[0], l.groupS[1]))
	r.setLayer("core.retries", "count", float64(l.retries))
}
