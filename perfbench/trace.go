package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed layer call. Parent 0 means a top-level span; spans of
// one allocd update share a Group (the update's epoch).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Group  int     `json:"group,omitempty"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Detail string  `json:"detail,omitempty"`
}

// tracer keeps spans in memory for the traced run and writes them out at
// the end. A nil *tracer is the untraced run: every method is a no-op, so
// the end-to-end runs carry no tracing work.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	// cost is the time spent inside the tracer and its log hook: what
	// tracing adds to the traced run.
	cost time.Duration
	// rounds holds the wall of each measuring round, untraced [0] and
	// traced [1], the base of the traced-minus-untraced overhead.
	rounds [2][]float64
}

func newTracer(on bool) *tracer {
	if !on {
		return nil
	}
	return &tracer{t0: time.Now()}
}

// add records a finished span and returns its id.
func (t *tracer) add(name string, parent, group int, start, end time.Time, detail string) int {
	if t == nil {
		return 0
	}
	c := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Group: group, Name: name,
		Start: start.Sub(t.t0).Seconds(), End: end.Sub(t.t0).Seconds(), Detail: detail})
	t.cost += time.Since(c)
	return id
}

// open records a span whose end is set later by close; children can name
// it as their parent meanwhile.
func (t *tracer) open(name string, parent, group int) int {
	if t == nil {
		return 0
	}
	now := time.Now()
	return t.add(name, parent, group, now, now, "")
}

func (t *tracer) close(id int) {
	if t == nil || id == 0 {
		return
	}
	c := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = c.Sub(t.t0).Seconds()
	t.cost += time.Since(c)
}

// round returns the tracer of measuring round i: the traced run leaves its
// even rounds untraced, so that it measures its own overhead against the
// same work on the same inputs.
func (t *tracer) round(i int) *tracer {
	if t == nil || i%2 == 0 {
		return nil
	}
	return t
}

// timeRound records the wall of one measuring round, traced or not.
func (t *tracer) timeRound(traced bool, d time.Duration) {
	if t == nil {
		return
	}
	i := 0
	if traced {
		i = 1
	}
	t.rounds[i] = append(t.rounds[i], secs(d))
}

// charge adds time spent in tracing code outside the tracer (log hooks).
func (t *tracer) charge(d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.cost += d
	t.mu.Unlock()
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval that its children cover (children may overlap each other
// under parallelism, so their union is subtracted).
func (t *tracer) selfTimes() map[string]float64 {
	kids := map[int][]span{}
	for _, s := range t.spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	self := map[string]float64{}
	for _, s := range t.spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(a, b int) bool { return cs[a].Start < cs[b].Start })
		covered, reach := 0.0, s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, reach), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.Name] += (s.End - s.Start) - covered
	}
	return self
}

func (t *tracer) write(cfg config) error {
	dir := filepath.Join(cfg.OutDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", cfg.Workload, cfg.Seed)), b, 0o644)
}

// finishTrace reports each layer's self time, the tracing cost and the
// overhead of the traced measuring rounds over the untraced ones, and
// writes the spans out.
func finishTrace(r *run, t *tracer, layers []string) error {
	if t == nil {
		return nil
	}
	self := t.selfTimes()
	for _, name := range layers {
		r.setLayer("self_s."+name, "s", self[name])
	}
	r.setLayer("trace.cost_ms", "ms", t.cost.Seconds()*1000)
	r.setLayer("trace.overhead_share", "share", median(t.rounds[1])/median(t.rounds[0])-1)
	r.setLayer("trace.spans", "count", float64(len(t.spans)))
	return t.write(r.cfg)
}
