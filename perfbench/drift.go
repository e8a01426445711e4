package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"fragalloc"
	"fragalloc/internal/mip"
	"fragalloc/internal/model"
	"fragalloc/internal/service"
	"fragalloc/internal/tpcds"
)

const (
	// driftUpdates is the fixed length of the drift stream. It is a count,
	// not a time, so the set of solved epochs — and with it every LP pivot
	// and the served W/V — is the same in every replay of one seed.
	driftUpdates = 6
	// driftReplays is how many fresh daemons replay the same stream in one
	// run. Adoption costs climb along the stream as observed scenarios
	// accumulate, so the median sits on a slope where one slow sample moves
	// it; two replays average it, and the second replay must reproduce the
	// first exactly (the in-run determinism check).
	driftReplays = 2
	// spareBoots is how many daemons are booted and dropped, only for the
	// setup_s median, after each replay; one more is booted before the
	// first. With the daemon of each replay, a run boots five times,
	// spread over the run: one boot takes ~1.3 s and varies by ±20%.
	spareBoots = 1
	// driftReduceTo caps the solved scenario set. The daemon boots from the
	// single f=1 scenario; drift re-clusters as it accumulates, and the
	// reduction turns lossy once more than this many scenarios are observed.
	driftReduceTo = 4
	// readPeriod spaces the open-loop reads of /v1/allocation: 60/s. The
	// rate is set by the tail rule of the report — a percentile counts only
	// with at least ten samples beyond it — so that p99 is measurable: the
	// two replays take ~17 s on the reference machine, which at 60/s gives
	// ~1000 reads. See README.md, "Read traffic".
	readPeriod = time.Second / 60
)

// runAllocdDrift replays a seeded drift stream against an in-process allocd
// behind a loopback HTTP server with its state journal on. One client
// applies updates closed-loop (POST, then WaitEpoch, then the next update),
// so every epoch is solved exactly once; one reader GETs the allocation
// open-loop and times each read from its due time.
func runAllocdDrift(r *run) error {
	cfg := r.cfg
	tr := newTracer(cfg.Trace)
	root := tr.open("run", 0, 0)

	w := tpcds.WorkloadSeed(cfg.WorkloadSeed)
	base := fragalloc.InSampleScenarios(w, 1, fragalloc.DefaultPresence, cfg.InSampleSeed)
	updates := service.GenerateDrift(w, base, service.DriftConfig{Updates: driftUpdates, Seed: cfg.DriftSeed})
	stateRoot := filepath.Join(cfg.OutDir, "allocd-state")
	if err := os.MkdirAll(stateRoot, 0o755); err != nil {
		return err
	}
	splits := newSplitLog(tr, root, "2+2", "2")

	// Robustness of the served allocation: the out-of-sample gap over
	// scenarios drawn around the workload. The measuring window is split
	// into one part after each replay, so that its samples are spread over
	// the run rather than bunched at its end: the speed of a shared machine
	// drifts on a scale of seconds.
	out := fragalloc.OutOfSampleScenarios(w, outOfSample, fragalloc.DefaultPresence, cfg.Seed)
	ev := &evaluator{r: r, parent: root, w: w, out: out}
	evalRound := 0
	evaluate := func(a *model.Allocation) error {
		ev.a = a
		return window(time.Duration(cfg.Seconds)*time.Second/driftReplays, func(int) error {
			ev.tr = tr.round(evalRound)
			evalRound++
			t0 := time.Now()
			defer func() { tr.timeRound(ev.tr != nil, time.Since(t0)) }()
			return ev.once()
		})
	}

	// boot times service.New + Bootstrap of a fresh daemon in a fresh state
	// directory: one set-up sample.
	var setup []float64
	boot := func(logf func(string, ...any)) (*service.Service, string, error) {
		dir, err := os.MkdirTemp(stateRoot, "run-")
		if err != nil {
			return nil, "", err
		}
		sc := service.Config{
			Workload:    w,
			Scenarios:   base,
			K:           4,
			Chunks:      fragalloc.MustParseChunks("2+2"),
			Parallelism: 1, // the second core serves HTTP
			MIP:         mip.Options{MaxNodes: 50},
			ReduceTo:    driftReduceTo,
			StateDir:    dir,
			Logf:        logf,
		}
		t0 := time.Now()
		sid := tr.open("setup", root, 0)
		svc, err := service.New(sc)
		if err == nil {
			bid := tr.open("bootstrap", sid, 0)
			err = svc.Bootstrap(context.Background())
			tr.close(bid)
		}
		tr.close(sid)
		setup = append(setup, secs(time.Since(t0)))
		r.attempt("bootstrap", err)
		return svc, dir, err
	}
	bootSpares := func(n int) error {
		for i := 0; i < n; i++ {
			_, dir, err := boot(nil)
			os.RemoveAll(dir)
			if err != nil {
				return err
			}
		}
		return nil
	}

	if err := bootSpares(1); err != nil {
		return err
	}
	var replays []*replay
	for i := 0; i < driftReplays; i++ {
		var logf func(string, ...any)
		if splits != nil && i == driftReplays-1 {
			logf = splits.logf // the last daemon: its bootstrap and every adoption
		}
		svc, dir, err := boot(logf)
		if err == nil {
			rp := &replay{r: r, tr: tr, parent: root, w: w, base: base, svc: svc, dir: dir}
			err = rp.run(updates)
			replays = append(replays, rp)
			if err == nil {
				err = bootSpares(spareBoots)
			}
			if err == nil {
				// Every replay ends serving the same allocation (checked
				// below), so each part of the window evaluates the same work.
				err = evaluate(rp.served)
			}
		}
		os.RemoveAll(dir)
		if err != nil {
			return err
		}
	}
	// Peak memory of the run: the replays and the evaluations between them.
	peakMB := peakRSSMB()

	first, last := replays[0], replays[len(replays)-1]
	for i, rp := range replays[1:] {
		if rp.lpIters != first.lpIters || math.Float64bits(rp.servedWV) != math.Float64bits(first.servedWV) ||
			math.Float64bits(sum(rp.migrate)) != math.Float64bits(sum(first.migrate)) {
			r.fail("replay %d served W/V %v after %d pivots and %v migrated bytes; replay 0 gave %v, %d, %v",
				i+1, rp.servedWV, rp.lpIters, sum(rp.migrate), first.servedWV, first.lpIters, sum(first.migrate))
		}
	}
	var adopt, ingest, solve, overhead, migrate, reads, late, readBytes []float64
	for _, rp := range replays {
		adopt = append(adopt, rp.adopt...)
		ingest = append(ingest, rp.ingest...)
		solve = append(solve, rp.solve...)
		overhead = append(overhead, rp.overhead...)
		migrate = append(migrate, rp.migrate...)
		reads = append(reads, rp.rd.latency...)
		late = append(late, rp.rd.late...)
		readBytes = append(readBytes, rp.rd.bytes...)
	}

	evalS, gap := median(ev.times), ev.gap

	migrateMB := sum(migrate) / float64(max(len(migrate), 1)) / 1e6
	r.setE2E("peak_rss_mb", "MB", peakMB)
	r.setE2E("setup_s", "s", median(setup))
	r.setE2E("allocate_s", "s", median(solve))
	r.setE2E("evaluate_s", "s", evalS)
	r.setE2E("wv", "ratio", last.servedWV)
	r.setE2E("oos_gap", "share", gap)
	r.setE2E("adopt_p50_s", "s", median(adopt))
	r.setE2E("read_p50_ms", "ms", median(reads))
	r.setE2E("migrate_mb", "MB", migrateMB)
	r.samples["adopt_s"], r.samples["solve_s"], r.samples["setup_s"], r.samples["evaluate_s"] = adopt, solve, setup, ev.times

	r.counters["simplex.lp_iters"] = float64(last.lpIters)
	r.counters["served_wv"] = last.servedWV
	r.counters["migrate_mb"] = migrateMB
	r.counters["oos_gap"] = gap
	fmt.Printf("%s: %d replays of %d updates, %d LP pivots each, served W/V %.4f, oos gap %.4f, adopt p50 %.3fs, read p50 %.3fms\n",
		cfg.Workload, len(replays), len(updates), last.lpIters, last.servedWV, gap, median(adopt), median(reads))

	layerDefaults(r)
	adoptTail, adoptPct, _ := tail(adopt)
	readTail, readPct, nReads := tail(reads)
	r.setLayer("simplex.lp_iters", "count", float64(last.lpIters))
	r.setLayer("simplex.iters_per_s", "1/s", float64(last.lpIters)/sum(last.solve))
	r.setLayer("core.optimal", "count", float64(last.outcomes["optimal"]))
	r.setLayer("core.feasible", "count", float64(last.outcomes["feasible"]))
	r.setLayer("core.degraded", "count", float64(last.outcomes["degraded"]))
	r.setLayer("scenario.reclusterings", "count", float64(last.status.Reclusterings))
	r.setLayer("scenario.max_deviation", "share", last.status.MaxDeviationBound)
	r.setLayer("service.ingest_ms", "ms", median(ingest)*1000)
	r.setLayer("service.solve_s", "s", median(solve))
	r.setLayer("service.lp_iters_per_adoption", "count", float64(last.lpIters)/float64(len(last.adopt)))
	r.setLayer("service.overhead_s", "s", median(overhead))
	r.setLayer("service.adoption_ratio", "share", float64(last.status.Adoptions)/float64(max(last.status.Attempts, 1)))
	r.setLayer("service.adoptions", "count", float64(len(adopt)))
	r.setLayer("service.adopt_tail_s", "s", adoptTail)
	r.setLayer("service.adopt_tail_pct", "%", adoptPct)
	r.setLayer("service.read_bytes", "bytes", median(readBytes))
	r.setLayer("service.reads", "count", float64(nReads))
	r.setLayer("service.read_tail_ms", "ms", readTail)
	r.setLayer("service.read_tail_pct", "%", readPct)
	r.setLayer("service.generator_late_ms", "ms", median(late))
	r.setLayer("eval.unservable", "count", float64(ev.unservable))
	r.setLayer("checkpoint.state_bytes", "bytes", float64(last.stateBytes))
	if tr == nil {
		return nil
	}
	// The split spans cover the last daemon's bootstrap and adoptions.
	splits.report(r)
	r.setLayer("mip.bb_nodes", "count", float64(splits.nodes))
	r.setLayer("simplex.iters_per_node", "count", float64(last.bootIters+last.lpIters)/float64(max(splits.nodes, 1)))
	r.setLayer("mip.nodes_per_s", "1/s", float64(splits.nodes)/(last.bootSolve+sum(last.solve)))
	traceSerialEval(r, tr, root, w, last.served, out)
	tr.close(root)
	return finishTrace(r, tr, traceLayers)
}

// replay is one daemon replaying the drift stream.
type replay struct {
	r      *run
	tr     *tracer
	parent int
	w      *model.Workload
	base   *model.ScenarioSet
	svc    *service.Service
	dir    string

	adopt, ingest, solve, overhead, migrate []float64
	lpIters, bootIters                      int
	bootSolve                               float64
	outcomes                                map[string]int
	rd                                      *reader
	served                                  *model.Allocation
	servedWV                                float64
	status                                  service.Status
	stateBytes                              int64
}

// run serves the daemon over loopback HTTP, applies the updates
// closed-loop beside the open-loop reader, checks every adoption and
// stops the daemon.
func (rp *replay) run(updates []service.Update) error {
	r, tr, svc := rp.r, rp.tr, rp.svc
	boot, _ := svc.Incumbent()
	rp.bootIters, rp.bootSolve = boot.LPIters, secs(boot.SolveTime)
	// The boot set is within ReduceTo, so the daemon solved it as given and
	// the full in-sample checks apply.
	r.attempt("bootstrap output check", checkResult(rp.w, rp.base, boot.Allocation, boot.W, boot.W/boot.V))

	ctx, cancel := context.WithCancel(context.Background())
	var loop sync.WaitGroup
	loop.Add(1)
	go func() {
		defer loop.Done()
		svc.Run(ctx)
	}()
	srv := httptest.NewServer(svc.Handler())
	defer func() {
		srv.Close()
		cancel()
		loop.Wait()
	}()
	client := srv.Client()

	stop := make(chan struct{})
	rp.rd = &reader{tr: tr, parent: rp.parent, url: srv.URL + "/v1/allocation", client: client}
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		rp.rd.loop(stop)
	}()

	prev := boot.Allocation
	rp.outcomes = map[string]int{}
	var err error
	for _, u := range updates {
		if err = rp.apply(ctx, client, srv.URL, u, &prev); err != nil {
			break
		}
	}
	close(stop)
	readers.Wait()
	if err != nil {
		return err
	}
	r.attempted += rp.rd.attempted
	for _, p := range rp.rd.problems {
		r.fail("read: %s", p)
	}
	if len(rp.adopt) == 0 {
		return fmt.Errorf("no update was adopted")
	}
	rp.status = svc.Status()
	inc, _ := svc.Incumbent()
	rp.served, rp.servedWV = inc.Allocation, rp.status.ReplicationFactor
	rp.stateBytes = newestGeneration(filepath.Join(rp.dir, "state"))
	return nil
}

// apply sends one update and waits for its adoption. A refused or
// unadopted update is a failed operation, not an error of the benchmark.
func (rp *replay) apply(ctx context.Context, client *http.Client, url string, u service.Update, prev **model.Allocation) error {
	r, tr, svc := rp.r, rp.tr, rp.svc
	body, err := json.Marshal(u)
	if err != nil {
		return err
	}
	t0 := time.Now()
	epoch, err := postUpdate(client, url+"/v1/update", body)
	t1 := time.Now()
	r.attempt("update", err)
	if err != nil {
		return nil
	}
	adopted, err := svc.WaitEpoch(ctx, epoch)
	t2 := time.Now()
	if err == nil && !adopted {
		err = fmt.Errorf("epoch %d was not adopted: %s", epoch, svc.Status().LastError)
	}
	r.attempt("adoption", err)
	if err != nil {
		return nil
	}
	inc, _ := svc.Incumbent()
	diff := svc.Diff()
	r.attempt("adoption check", checkAdoption(rp.w, *prev, inc, diff, epoch))
	*prev = inc.Allocation

	lat := t2.Sub(t0)
	rp.adopt = append(rp.adopt, secs(lat))
	rp.ingest = append(rp.ingest, secs(t1.Sub(t0)))
	rp.solve = append(rp.solve, secs(inc.SolveTime))
	rp.overhead = append(rp.overhead, secs(lat-t1.Sub(t0)-inc.SolveTime))
	if diff != nil {
		rp.migrate = append(rp.migrate, diff.MigrationBytes)
	}
	rp.lpIters += inc.LPIters
	rp.outcomes[inc.Outcome]++

	g := int(epoch)
	uid := tr.add("update", rp.parent, g, t0, t2, "")
	tr.add("ingest", uid, g, t0, t1, "")
	wid := tr.add("wait", uid, g, t1, t2, "")
	tr.add("solve", wid, g, inc.AdoptedAt.Add(-inc.SolveTime), inc.AdoptedAt, "")
	return nil
}

// postUpdate POSTs one update without waiting and returns its epoch.
func postUpdate(c *http.Client, url string, body []byte) (uint64, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(resp.Body)
		return 0, fmt.Errorf("POST /v1/update: %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	var ur struct {
		Epoch uint64 `json:"epoch"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ur); err != nil {
		return 0, fmt.Errorf("POST /v1/update: %w", err)
	}
	return ur.Epoch, nil
}

// reader GETs the allocation on a fixed schedule until stopped, timing
// each read from when it was due, so a stall also counts against the reads
// queued behind it.
type reader struct {
	tr     *tracer
	parent int
	url    string
	client *http.Client

	latency, bytes, late []float64
	attempted            int
	problems             []string
}

func (rd *reader) loop(stop <-chan struct{}) {
	t0 := time.Now()
	for i := 0; ; i++ {
		due := t0.Add(time.Duration(i) * readPeriod)
		if wait := time.Until(due); wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-stop:
				t.Stop()
				return
			case <-t.C:
			}
		} else {
			select {
			case <-stop:
				return
			default:
			}
		}
		sent := time.Now()
		n, err := rd.get()
		done := time.Now()
		rd.attempted++
		if err != nil {
			rd.problems = append(rd.problems, err.Error())
			continue
		}
		rd.latency = append(rd.latency, done.Sub(due).Seconds()*1000)
		rd.late = append(rd.late, sent.Sub(due).Seconds()*1000)
		rd.bytes = append(rd.bytes, float64(n))
		rd.tr.add("read", rd.parent, 0, due, done, "")
	}
}

// get reads one allocation document and checks that it parses and carries
// an allocation.
func (rd *reader) get() (int, error) {
	resp, err := rd.client.Get(rd.url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("GET /v1/allocation: %s", resp.Status)
	}
	var doc struct {
		Allocation *model.Allocation `json:"allocation"`
	}
	if err := json.Unmarshal(body, &doc); err != nil || doc.Allocation == nil || doc.Allocation.K < 1 {
		return 0, fmt.Errorf("GET /v1/allocation: no allocation in the response (%v)", err)
	}
	return len(body), nil
}

// newestGeneration returns the size of the newest state-journal generation
// file in dir (the files sort by generation number).
func newestGeneration(dir string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".ckpt" {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		return 0
	}
	sort.Strings(names)
	info, err := os.Stat(filepath.Join(dir, names[len(names)-1]))
	if err != nil {
		return 0
	}
	return info.Size()
}
