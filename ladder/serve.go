package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/spec"
)

// request is one closed-loop submission: POST /v1/runs, the NDJSON stream
// to its terminal line, then GET /result.
type request struct {
	client, index int
	law           spec.RunSpec
	hit           bool
	origin        int // for a hit: the index in the client's schedule of the run it repeats

	start, posted, first, terminal, done time.Time
	result                               []byte
	err                                  error
}

// serveSchedule generates every client's submissions from the workload
// seed: fresh laws with distinct seeds, and every fourth submission a
// repeat of one of the same client's earlier fresh laws — already done, so
// the server answers it from the result cache.
func (b *bench) serveSchedule(episode int) [][]*request {
	per := b.sz.serveRequests / b.clients
	out := make([][]*request, b.clients)
	for c := range out {
		r := rng.NewStream(b.specSeed(3), uint64(episode*1000+c))
		var fresh []int
		for k := 0; k < per; k++ {
			req := &request{client: c, index: k}
			if k%4 == 3 {
				req.hit = true
				req.origin = fresh[r.Intn(len(fresh))]
				req.law = out[c][req.origin].law
			} else {
				fresh = append(fresh, k)
				req.law = spec.RunSpec{
					Process:   spec.ProcessRBB,
					Seed:      r.Uint64() >> 16,
					N:         b.sz.serveN,
					Rounds:    b.sz.serveRounds,
					Shards:    1,
					Quantiles: []float64{0.5, 0.99},
				}
			}
			out[c] = append(out[c], req)
		}
	}
	return out
}

// serveEpisode is one server lifetime: start on a fresh data directory,
// the closed loop, the /metrics and manifest readings, and the stop.
type serveEpisode struct {
	setup     time.Duration
	window    time.Duration
	reqs      []*request
	before    prom
	after     prom
	manifest  int64
	rssMiB    float64
	serverErr error
}

// liveServers holds the rbb-serve processes the watchdog must stop.
var liveServers sync.Map // *os.Process → struct{}

func killLiveServers() {
	liveServers.Range(func(k, _ any) bool {
		k.(*os.Process).Kill()
		return true
	})
}

// server is one rbb-serve process on a data directory of its own.
type server struct {
	cmd     *exec.Cmd
	dir     string
	base    string
	hc      *http.Client
	tp      *http.Transport
	drained chan struct{}
	stopped bool
}

// startServer starts rbb-serve with every flag at its default except the
// listen address, the data directory and the worker counts, and returns
// once /healthz answers, with the time that took.
func (b *bench) startServer(dir string) (*server, time.Duration, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(b.cfg.serveBin, "-addr", "127.0.0.1:0", "-data", dir,
		"-workers", strconv.Itoa(b.serveWorkers), "-run-workers", "1")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting rbb-serve: %w", err)
	}
	liveServers.Store(cmd.Process, struct{}{})
	s := &server{cmd: cmd, dir: dir, drained: make(chan struct{})}
	// The server logs its listen address, then one line per request; the
	// pipe is drained to the end so logging never blocks it.
	addrc := make(chan string, 1)
	go func() {
		defer close(s.drained)
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			if !sent && strings.Contains(line, "msg=listening") {
				for _, f := range strings.Fields(line) {
					if a, ok := strings.CutPrefix(f, "addr="); ok && !sent {
						addrc <- a
						sent = true
					}
				}
			}
		}
		if !sent {
			close(addrc)
		}
	}()
	fail := func(err error) (*server, time.Duration, error) {
		s.stop()
		return nil, 0, err
	}
	select {
	case a, ok := <-addrc:
		if !ok {
			return fail(errors.New("rbb-serve exited before listening"))
		}
		s.base = "http://" + a
	case <-time.After(30 * time.Second):
		return fail(errors.New("rbb-serve did not report its address within 30s"))
	}
	s.tp = &http.Transport{MaxIdleConnsPerHost: 2*b.clients + 2}
	s.hc = &http.Client{Transport: s.tp, Timeout: 60 * time.Second}
	for {
		resp, err := s.hc.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(t0) > 30*time.Second {
			return fail(fmt.Errorf("rbb-serve /healthz not ready within 30s: %v", err))
		}
		time.Sleep(time.Millisecond)
	}
	return s, time.Since(t0), nil
}

// stop sends SIGTERM (rbb-serve's graceful path) and waits for the exit,
// killing the process after 20s. Idempotent.
func (s *server) stop() error {
	if s.stopped {
		return nil
	}
	s.stopped = true
	if s.tp != nil {
		s.tp.CloseIdleConnections()
	}
	// A process that already exited fails the signal; Wait reports how.
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { <-s.drained; done <- s.cmd.Wait() }()
	var err error
	select {
	case err = <-done:
	case <-time.After(20 * time.Second):
		s.cmd.Process.Kill()
		err = fmt.Errorf("rbb-serve did not stop on SIGTERM: %v", <-done)
	}
	liveServers.Delete(s.cmd.Process)
	os.RemoveAll(s.dir)
	return err
}

// runServeEpisode drives one server lifetime; with tr non-nil every
// request records its spans as it goes.
func (b *bench) runServeEpisode(episode int, tr *tracer) (ep serveEpisode, err error) {
	s, setup, err := b.startServer(filepath.Join(b.dir, fmt.Sprintf("serve-%d", episode)))
	if err != nil {
		return ep, err
	}
	defer s.stop()
	ep.setup = setup
	if ep.before, err = scrape(s.hc, s.base); err != nil {
		return ep, err
	}
	sched := b.serveSchedule(episode)
	start := time.Now()
	var wg sync.WaitGroup
	for _, reqs := range sched {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, req := range reqs {
				req.err = doRequest(s.hc, s.base, req)
				if tr != nil && req.err == nil {
					traceRequest(tr, req)
				}
			}
		}()
	}
	wg.Wait()
	ep.window = time.Since(start)
	if ep.after, err = scrape(s.hc, s.base); err != nil {
		return ep, err
	}
	for _, reqs := range sched {
		ep.reqs = append(ep.reqs, reqs...)
	}
	fi, err := os.Stat(filepath.Join(s.dir, "runs.json"))
	if err != nil {
		return ep, fmt.Errorf("serve manifest: %w", err)
	}
	ep.manifest = fi.Size()
	if ep.rssMiB, err = peakRSSMiB(s.cmd.Process.Pid); err != nil {
		return ep, err
	}
	ep.serverErr = s.stop()
	return ep, nil
}

func scrape(hc *http.Client, base string) (prom, error) {
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: %s", resp.Status)
	}
	return parseProm(blob), nil
}

// traceRequest records one request's spans: the request, and under it the
// submit, the wait for its first stream line, the stream to its terminal
// line and the result fetch. The trace id is the request.
func traceRequest(tr *tracer, r *request) {
	at := func(t time.Time) int64 { return int64(t.Sub(tr.t0)) }
	trace := int64(r.client*100000 + r.index)
	lane := int32(r.client)
	id := tr.add("request", -1, lane, trace, at(r.start), at(r.done))
	tr.add("serve.submit", id, lane, trace, at(r.start), at(r.posted))
	tr.add("serve.queue", id, lane, trace, at(r.posted), at(r.first))
	tr.add("serve.run", id, lane, trace, at(r.first), at(r.terminal))
	tr.add("serve.result", id, lane, trace, at(r.terminal), at(r.done))
}

// doRequest runs one submission end to end and records its timestamps.
func doRequest(hc *http.Client, base string, req *request) error {
	body, err := json.Marshal(req.law)
	if err != nil {
		return err
	}
	req.start = time.Now()
	resp, err := hc.Post(base+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	var info serve.RunInfo
	derr := json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close()
	req.posted = time.Now()
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("submit: %s", resp.Status)
	}
	if derr != nil {
		return fmt.Errorf("submit: %w", derr)
	}
	if info.Cached != req.hit {
		return fmt.Errorf("submit %s: cached=%v, schedule says hit=%v", info.ID, info.Cached, req.hit)
	}

	resp, err = hc.Get(base + "/v1/runs/" + info.ID + "/stream")
	if err != nil {
		return err
	}
	br := bufio.NewReader(resp.Body)
	var last []byte
	for {
		line, rerr := br.ReadBytes('\n')
		if len(bytes.TrimSpace(line)) > 0 {
			now := time.Now()
			if req.first.IsZero() {
				req.first = now
			}
			if bytes.Contains(line, []byte(`"status"`)) {
				req.terminal = now
			}
			last = line
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			resp.Body.Close()
			return fmt.Errorf("stream %s: %w", info.ID, rerr)
		}
	}
	resp.Body.Close()
	var term serve.RunInfo
	if err := json.Unmarshal(last, &term); err != nil || req.terminal.IsZero() {
		return fmt.Errorf("stream %s: no terminal line (%v)", info.ID, err)
	}
	if term.Status != serve.StatusDone || term.Round != req.law.Rounds {
		return fmt.Errorf("stream %s: terminal status %s at round %d, want done at %d", info.ID, term.Status, term.Round, req.law.Rounds)
	}

	resp, err = hc.Get(base + "/v1/runs/" + info.ID + "/result")
	if err != nil {
		return err
	}
	req.result, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	req.done = time.Now()
	if err != nil {
		return fmt.Errorf("result %s: %w", info.ID, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("result %s: %s", info.ID, resp.Status)
	}
	var sum shard.Summary
	if err := json.Unmarshal(req.result, &sum); err != nil {
		return fmt.Errorf("result %s: %w", info.ID, err)
	}
	if sum.Rounds != req.law.Rounds {
		return fmt.Errorf("result %s: %d rounds, requested %d", info.ID, sum.Rounds, req.law.Rounds)
	}
	return nil
}

// recompute runs a served law in process through spec.Build and encodes
// its summary as the /result endpoint does.
func recompute(law spec.RunSpec) ([]byte, error) {
	if err := law.Normalize(0); err != nil {
		return nil, err
	}
	p, err := law.Build(1)
	if err != nil {
		return nil, err
	}
	defer p.Close()
	cp, ok := p.(checkpoint.Process)
	if !ok {
		return nil, errors.New("in-process rbb run cannot snapshot")
	}
	pipe, err := shard.NewPipeline(law.Quantiles)
	if err != nil {
		return nil, err
	}
	if _, _, err := checkpoint.Run(context.Background(), cp, law.Rounds, checkpoint.Policy{Pipeline: pipe}); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	sum := pipe.SummaryFor(cp)
	err = json.NewEncoder(&buf).Encode(&sum)
	return buf.Bytes(), err
}

// checkServe verifies one episode's outputs: every request succeeded,
// every hit is byte-identical to the result it repeats, and a seeded
// sample of fresh results matches an in-process recomputation.
func (b *bench) checkServe(episode int, ep serveEpisode) {
	b.check(ep.serverErr == nil, "serve episode %d: rbb-serve stop: %v", episode, ep.serverErr)
	byClient := map[int][]*request{}
	var fresh []*request
	for _, r := range ep.reqs {
		b.ops++
		byClient[r.client] = append(byClient[r.client], r)
		b.check(r.err == nil, "serve episode %d client %d request %d: %v", episode, r.client, r.index, r.err)
		if r.err == nil && !r.hit {
			fresh = append(fresh, r)
		}
	}
	for _, reqs := range byClient {
		for _, r := range reqs {
			if r.hit && r.err == nil {
				orig := reqs[r.origin]
				b.check(bytes.Equal(r.result, orig.result), "serve episode %d client %d request %d: cache hit differs from request %d", episode, r.client, r.index, r.origin)
			}
		}
	}
	var nHits float64
	for _, r := range ep.reqs {
		if r.hit {
			nHits++
		}
	}
	hits := ep.after.family("rbb_serve_cache_hits_total") - ep.before.family("rbb_serve_cache_hits_total")
	misses := ep.after.family("rbb_serve_cache_misses_total") - ep.before.family("rbb_serve_cache_misses_total")
	b.check(hits == nHits && hits+misses == float64(len(ep.reqs)), "serve episode %d: server counted %v hits and %v misses, schedule has %v hits in %d", episode, hits, misses, nHits, len(ep.reqs))
	pick := rng.NewStream(b.specSeed(4), uint64(episode))
	for i := 0; i < b.sz.serveRecheck && len(fresh) > 0; i++ {
		r := fresh[pick.Intn(len(fresh))]
		want, err := recompute(r.law)
		b.check(err == nil && bytes.Equal(want, r.result), "serve episode %d seed %d: served result %q, in-process %q (err %v)", episode, r.law.Seed, r.result, want, err)
	}
}

// serveEpisode runs and checks one server lifetime.
func (b *bench) serveEpisode(episode int, tr *tracer) (serveEpisode, error) {
	freshStart()
	ep, err := b.runServeEpisode(episode, tr)
	if err != nil {
		return ep, fmt.Errorf("serve episode %d: %w", episode, err)
	}
	b.checkServe(episode, ep)
	return ep, nil
}

// serveFigures are the client-side and /metrics figures of some episodes.
type serveFigures struct {
	setups, fresh, hits, submit, queue, run, result []float64
	// Per lifetime: fresh-latency median and 90th percentile, hit-latency
	// median, bin-rounds and requests per second of the closed loop.
	freshP50, freshP90, hitP50, binRates, reqRates []float64
	ckptMean, handler, step, ckptPerRun, hitRatio  []float64
	manifestKiB, peaks                             []float64
}

func (b *bench) serveFigures(eps []serveEpisode) serveFigures {
	var f serveFigures
	for _, ep := range eps {
		f.setups = append(f.setups, ep.setup.Seconds())
		f.peaks = append(f.peaks, ep.rssMiB)
		f.manifestKiB = append(f.manifestKiB, float64(ep.manifest)/1024)
		nFresh, bins, requests := 0.0, 0.0, 0.0
		var freshMs, hitMs []float64
		for _, r := range ep.reqs {
			if r.err != nil {
				continue
			}
			requests++
			f.submit = append(f.submit, ms(r.posted.Sub(r.start)))
			f.result = append(f.result, ms(r.done.Sub(r.terminal)))
			if r.hit {
				hitMs = append(hitMs, ms(r.done.Sub(r.start)))
				continue
			}
			nFresh++
			bins += float64(r.law.N) * float64(r.law.Rounds)
			freshMs = append(freshMs, ms(r.done.Sub(r.start)))
			f.queue = append(f.queue, ms(r.first.Sub(r.posted)))
			f.run = append(f.run, ms(r.terminal.Sub(r.first)))
		}
		f.fresh = append(f.fresh, freshMs...)
		f.hits = append(f.hits, hitMs...)
		f.freshP50 = append(f.freshP50, median(freshMs))
		f.freshP90 = append(f.freshP90, quantile(freshMs, 0.9))
		f.hitP50 = append(f.hitP50, median(hitMs))
		f.binRates = append(f.binRates, bins/ep.window.Seconds())
		f.reqRates = append(f.reqRates, requests/ep.window.Seconds())
		d := func(key string, labels ...string) float64 {
			return ep.after.family(key, labels...) - ep.before.family(key, labels...)
		}
		if c := d("rbb_ckpt_write_seconds_count"); c > 0 {
			f.ckptMean = append(f.ckptMean, d("rbb_ckpt_write_seconds_sum")/c*1e3)
		}
		if c := d("rbb_http_request_seconds_count"); c > 0 {
			f.handler = append(f.handler, d("rbb_http_request_seconds_sum")/c*1e3)
		}
		if nFresh > 0 {
			step := d("rbb_phase_seconds_sum", `phase="release"`) + d("rbb_phase_seconds_sum", `phase="commit"`)
			f.step = append(f.step, step/nFresh*1e3)
			f.ckptPerRun = append(f.ckptPerRun, d("rbb_ckpt_write_seconds_sum")/nFresh*1e3)
		}
		hits, misses := d("rbb_serve_cache_hits_total"), d("rbb_serve_cache_misses_total")
		if hits+misses > 0 {
			f.hitRatio = append(f.hitRatio, hits/(hits+misses))
		}
	}
	return f
}

func (b *bench) serveWorkload() error {
	if !b.cfg.trace {
		var eps []serveEpisode
		for len(eps) == 0 || time.Now().Before(b.deadline) {
			ep, err := b.serveEpisode(len(eps), nil)
			if err != nil {
				return err
			}
			eps = append(eps, ep)
		}
		f := b.serveFigures(eps)
		for len(f.setups) < minSetups {
			freshStart()
			s, d, err := b.startServer(filepath.Join(b.dir, fmt.Sprintf("setup-%d", len(f.setups))))
			if err != nil {
				return fmt.Errorf("set-up sample: %w", err)
			}
			if err := s.stop(); err != nil {
				return fmt.Errorf("set-up sample: %w", err)
			}
			f.setups = append(f.setups, d.Seconds())
		}
		b.put("setup_s", median(f.setups), len(f.setups))
		b.put("latency_ms.p50", median(f.freshP50), len(f.fresh))
		b.put("latency_ms.p90", median(f.freshP90), len(f.fresh))
		b.put("bin_rounds_per_s", median(f.binRates), len(f.binRates))
		b.put("peak_rss_mib", median(f.peaks), len(f.peaks))
		return nil
	}
	base, traced, err := b.serveLegs(b.deadline)
	if err != nil {
		return err
	}
	f, fb := b.serveFigures(traced), b.serveFigures(base)
	b.put("ckpt_ms.p50", median(fb.ckptMean), len(fb.ckptMean))
	b.put("bench.trace_overhead", median(f.fresh)/median(fb.fresh)-1, len(f.fresh))
	return nil
}

// serveLegs runs untraced and traced rbb-serve lifetimes in turn until the
// deadline (at least one of each), so the tracing overhead is measured
// under the same host conditions, and reports the serve layer: the spans
// of the traced lifetimes, and hit_ms.p50 and runs_per_s of the untraced
// ones.
func (b *bench) serveLegs(deadline time.Time) (base, traced []serveEpisode, err error) {
	for len(traced) == 0 || time.Now().Before(deadline) {
		ep, err := b.serveEpisode(2*len(base), nil)
		if err != nil {
			return nil, nil, err
		}
		te, err := b.serveEpisode(2*len(base)+1, b.tr)
		if err != nil {
			return nil, nil, err
		}
		base, traced = append(base, ep), append(traced, te)
	}
	f, fb := b.serveFigures(traced), b.serveFigures(base)
	b.put("serve.submit_ms", median(f.submit), len(f.submit))
	b.put("serve.queue_ms", median(f.queue), len(f.queue))
	b.put("serve.run_ms", median(f.run), len(f.run))
	b.put("serve.result_ms", median(f.result), len(f.result))
	b.put("serve.handler_ms", median(f.handler), len(f.handler))
	b.put("serve.step_ms", median(f.step), len(f.step))
	b.put("serve.ckpt_ms", median(f.ckptPerRun), len(f.ckptPerRun))
	b.put("serve.cache_hit_ratio", median(f.hitRatio), len(f.hitRatio))
	b.put("serve.manifest_kib", median(f.manifestKiB), len(f.manifestKiB))
	b.put("hit_ms.p50", median(fb.hitP50), len(fb.hits))
	b.put("runs_per_s", median(fb.reqRates), len(fb.reqRates))
	return base, traced, nil
}
