package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// ledgerEntry is what the determinism gate remembers about all earlier runs
// of one workload on one instance and one program version.
type ledgerEntry struct {
	Counters map[string]float64 `json:"counters"`
	Runs     int                `json:"runs"`
}

// gate enforces determinism across runs: the counters the program computes
// deterministically must repeat exactly, traced or not, in every run of the
// same inputs and source. The solve counters (LP pivots, B&B nodes, W/V,
// outcomes, the served W/V, the migration volume) depend on the instance
// only — workload, in-sample and drift seeds — so they are compared across
// runs at every --seed; the out-of-sample gap also depends on --seed. A
// mismatch is a program determinism failure; it is reported, never
// averaged. The ledger lives in the output directory, so the gate spans the
// runs made in one checkout.
func gate(r *run, env map[string]string) error {
	instance := fmt.Sprintf("%s|ws=%d|is=%d|drift=%d|src=%s", r.cfg.Workload, r.cfg.WorkloadSeed,
		r.cfg.InSampleSeed, r.cfg.DriftSeed, env["source_digest"])
	solve, sample := map[string]float64{}, map[string]float64{}
	for name, v := range r.counters {
		if name == "oos_gap" {
			sample[name] = v
		} else {
			solve[name] = v
		}
	}
	runs, err1 := record(r.cfg, instance, solve)
	_, err2 := record(r.cfg, fmt.Sprintf("%s|oos=%d", instance, r.cfg.Seed), sample)
	r.setLayer("gate.runs_on_record", "count", float64(runs))
	return errors.Join(err1, err2)
}

// record compares counters with the ledger entry under key, and adds this
// run to the entry when they match. It returns the runs on record,
// this one included.
func record(cfg config, key string, counters map[string]float64) (int, error) {
	sum := sha256.Sum256([]byte(key))
	dir := filepath.Join(cfg.OutDir, "ledger")
	path := filepath.Join(dir, cfg.Workload+"-"+hex.EncodeToString(sum[:8])+".json")

	var e ledgerEntry
	b, err := os.ReadFile(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		e.Counters = counters
	case err != nil:
		return 0, err
	default:
		if err := json.Unmarshal(b, &e); err != nil {
			return 0, fmt.Errorf("ledger %s: %w", path, err)
		}
	}
	var mismatch []string
	for name, want := range e.Counters {
		got, ok := counters[name]
		if !ok || math.Float64bits(got) != math.Float64bits(want) {
			mismatch = append(mismatch, fmt.Sprintf("%s = %v, earlier runs %v", name, got, want))
		}
	}
	e.Runs++
	if len(mismatch) > 0 {
		sort.Strings(mismatch)
		return e.Runs, fmt.Errorf("the program is not deterministic on this instance: %v", mismatch)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	out, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return 0, err
	}
	return e.Runs, os.WriteFile(path, out, 0o644)
}
