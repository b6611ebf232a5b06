package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/shard/transport/local"
)

// span is one timed call into a layer, recorded by the benchmark around the
// public call it makes. trace groups the spans of one round (stepping
// workloads) or one request (serve).
type span struct {
	name       string
	id, parent int32 // parent −1 for roots
	lane       int32 // Chrome-trace thread row
	trace      int64
	start, end int64 // ns since the tracer's epoch
}

// tracer keeps every span in memory until the run ends. Safe for
// concurrent use; the stepping loops call it from one goroutine and the
// serve clients from several.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) begin(name string, parent int32, trace int64) int32 {
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, id: id, parent: parent, trace: trace, start: start, end: -1})
	return id
}

func (t *tracer) end(id int32) {
	end := t.now()
	t.mu.Lock()
	t.spans[id].end = end
	t.mu.Unlock()
}

// ms returns the duration of a closed span in ms.
func (t *tracer) ms(id int32) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans[id]
	return float64(s.end-s.start) / 1e6
}

// add records a span timed elsewhere (per-shard calls on pool workers,
// serve requests) and returns its id.
func (t *tracer) add(name string, parent, lane int32, trace, start, end int64) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, id: id, parent: parent, lane: lane, trace: trace, start: start, end: end})
	return id
}

// durs returns the durations in ms of every closed span with the name.
func (t *tracer) durs(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.name == name && s.end >= 0 {
			out = append(out, float64(s.end-s.start)/1e6)
		}
	}
	return out
}

// selfTimes aggregates, per span name, the call count, the total time and
// the self time: each span's duration minus the part of it its children
// cover (children of one parent may overlap when pool workers run them
// concurrently, so the covered part is the union of their intervals).
type selfTime struct {
	name        string
	count       int
	total, self float64 // ms
}

func (t *tracer) selfTimes() []selfTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[int32][]int32)
	for _, s := range t.spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], s.id)
		}
	}
	agg := map[string]*selfTime{}
	var order []string
	for _, s := range t.spans {
		if s.end < 0 {
			continue
		}
		a := agg[s.name]
		if a == nil {
			a = &selfTime{name: s.name}
			agg[s.name] = a
			order = append(order, s.name)
		}
		type iv struct{ lo, hi int64 }
		var ivs []iv
		for _, k := range kids[s.id] {
			c := t.spans[k]
			lo, hi := max(c.start, s.start), min(c.end, s.end)
			if c.end >= 0 && hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
		covered, reach := int64(0), int64(-1<<62)
		for _, v := range ivs {
			if v.lo > reach {
				covered += v.hi - v.lo
				reach = v.hi
			} else if v.hi > reach {
				covered += v.hi - reach
				reach = v.hi
			}
		}
		d := s.end - s.start
		a.count++
		a.total += float64(d) / 1e6
		a.self += float64(d-covered) / 1e6
	}
	out := make([]selfTime, 0, len(order))
	for _, n := range order {
		out = append(out, *agg[n])
	}
	return out
}

// writeChrome writes every span as a Chrome trace (the format `rbb-sim
// -trace` emits: complete "X" events, microsecond timestamps), carrying the
// span id, parent and trace id as args.
func (t *tracer) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := t.encodeChrome(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (t *tracer) encodeChrome(w io.Writer) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int32          `json:"tid"`
		Args map[string]any `json:"args"`
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, err := io.WriteString(w, `{"displayTimeUnit":"ms","traceEvents":[`); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	written := 0
	for _, s := range t.spans {
		if s.end < 0 {
			continue
		}
		if written > 0 {
			if _, err := io.WriteString(w, ","); err != nil {
				return err
			}
		}
		written++
		ev := event{Name: s.name, Ph: "X", Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Pid: 1, Tid: s.lane, Args: map[string]any{"id": s.id, "parent": s.parent, "trace": s.trace}}
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "]}\n")
	return err
}

// tracedRunner is the transport.Runner the traced stepping run hands to
// shard.NewGroup: it wraps a local.Pool, times each Run and each per-shard
// call, and derives the pool's barrier wait and imbalance from the worker
// blocks (the contiguous split documented on local.Pool).
type tracedRunner struct {
	pool       *local.Pool
	tr         *tracer
	shards     int
	start, end []int64

	// Set by the episode loop before each phase call.
	name   string
	parent int32
	trace  int64

	// Results of the last Run, in ns.
	wall, busy, slowest int64
	imbalance           float64
}

func newTracedRunner(tr *tracer, shards, workers int) *tracedRunner {
	return &tracedRunner{
		pool:   local.NewPool(shards, workers),
		tr:     tr,
		shards: shards,
		start:  make([]int64, shards),
		end:    make([]int64, shards),
	}
}

func (r *tracedRunner) Run(f func(i int)) {
	tr := r.tr
	id := tr.begin("local.run", r.parent, r.trace)
	t0 := tr.now()
	r.pool.Run(func(i int) {
		s := tr.now()
		f(i)
		r.start[i], r.end[i] = s, tr.now()
	})
	r.wall = tr.now() - t0
	tr.end(id)
	r.busy, r.slowest = 0, 0
	w := r.pool.Workers()
	for k := 0; k < w; k++ {
		var b int64
		for i := blockStart(r.shards, w, k); i < blockStart(r.shards, w, k+1); i++ {
			b += r.end[i] - r.start[i]
			tr.add(r.name, id, int32(10+i), r.trace, r.start[i], r.end[i])
		}
		r.busy += b
		r.slowest = max(r.slowest, b)
	}
	r.imbalance = 0
	if r.busy > 0 {
		r.imbalance = float64(r.slowest) / (float64(r.busy) / float64(w))
	}
}

func (r *tracedRunner) Close() error { return r.pool.Close() }

// blockStart is local.Pool's worker-block arithmetic: worker w of workers
// steps shards [blockStart(w), blockStart(w+1)).
func blockStart(shards, workers, w int) int {
	q, rem := shards/workers, shards%workers
	if w <= rem {
		return w * (q + 1)
	}
	return rem*(q+1) + (w-rem)*q
}

// printSelfTimes writes the per-span-name self-time table.
func printSelfTimes(w io.Writer, st []selfTime) {
	fmt.Fprintf(w, "%-28s %9s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, s := range st {
		fmt.Fprintf(w, "%-28s %9d %12.3f %12.3f\n", s.name, s.count, s.total, s.self)
	}
}
