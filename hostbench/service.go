package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"

	"repro/internal/metrics"
	"repro/internal/simd"
	"repro/internal/stats"
	"repro/pkg/client"
)

// daemon is one cmd/simd child process.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	exited chan struct{} // closed once Wait returned
	err    error         // Wait's result, valid after exited
}

// logWatch consumes the daemon's JSON log, picks the listening address
// out of the "simd listening" line and keeps the last lines for errors.
type logWatch struct {
	mu      sync.Mutex
	partial []byte
	tail    []string
	addr    chan string // buffered 1: the address is sent once
	sent    bool
}

func (w *logWatch) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.partial = append(w.partial, p...)
	for {
		i := bytes.IndexByte(w.partial, '\n')
		if i < 0 {
			break
		}
		line := string(w.partial[:i])
		w.partial = append(w.partial[:0], w.partial[i+1:]...)
		if w.tail = append(w.tail, line); len(w.tail) > 8 {
			w.tail = w.tail[1:]
		}
		var rec struct {
			Msg  string `json:"msg"`
			Addr string `json:"addr"`
		}
		if !w.sent && json.Unmarshal([]byte(line), &rec) == nil && rec.Msg == "simd listening" {
			w.addr <- rec.Addr
			w.sent = true
		}
	}
	return len(p), nil
}

func (w *logWatch) lines() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]string(nil), w.tail...)
}

// startDaemon starts cmd/simd on a loopback port with an on-disk store
// (and so its fsynced journal) and returns once /healthz answers.
func startDaemon(ctx context.Context, bin, storeDir string, workers int) (*daemon, error) {
	if bin == "" {
		return nil, errors.New("service workloads need -simd, a built cmd/simd binary")
	}
	w := &logWatch{addr: make(chan string, 1)}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-workers", strconv.Itoa(workers),
		"-store-dir", storeDir, "-log-format", "json")
	cmd.Stderr = w
	// The daemon must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start simd: %w", err)
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	go func() {
		d.err = cmd.Wait()
		close(d.exited)
	}()
	deadline := time.After(30 * time.Second)
	select {
	case addr := <-w.addr:
		d.base = "http://" + addr
	case <-d.exited:
		return nil, fmt.Errorf("simd exited before listening: %v; log: %q", d.err, w.lines())
	case <-deadline:
		d.stop()
		return nil, errors.New("simd did not log its listening address within 30s")
	case <-ctx.Done():
		d.stop()
		return nil, ctx.Err()
	}
	hc := &http.Client{Timeout: time.Second}
	for {
		resp, err := hc.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("simd exited before /healthz answered: %v; log: %q", d.err, w.lines())
		case <-deadline:
			d.stop()
			return nil, errors.New("simd /healthz did not answer within 30s")
		case <-ctx.Done():
			d.stop()
			return nil, ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

// stop drains the daemon with SIGTERM, kills it if it has not exited
// within 15s, and returns once it has exited.
func (d *daemon) stop() {
	select {
	case <-d.exited:
		return
	default:
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // exit is awaited below
	select {
	case <-d.exited:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill() // a failed kill means it already exited
		<-d.exited
	}
}

// executions reads the daemon's engine-execution counter from /stats.
func (d *daemon) executions(ctx context.Context) (int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/stats", nil)
	if err != nil {
		return 0, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, fmt.Errorf("stats: %w", err)
	}
	defer resp.Body.Close()
	var st simd.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return 0, fmt.Errorf("stats: %w", err)
	}
	return st.Executions, nil
}

// request is one open-loop submission: its spec and when it is due,
// relative to the start of its window.
type request struct {
	spec simd.JobSpec
	due  time.Duration
	pool int // svc-cached: index of the pool spec
}

// reply is one request's outcome. Every time is measured from the
// window start, so latency counts any wait the generator imposed.
type reply struct {
	err                   error
	late                  time.Duration // send started − due
	latency               time.Duration // report in hand − due
	done                  time.Duration // report in hand, from window start
	submit, await, report time.Duration // each pkg/client call
	sub                   client.Submission
	st                    client.JobStatus
	body                  []byte
}

// requestTimeout bounds one request's whole round trip.
const requestTimeout = 2 * time.Minute

// drive sends the requests open loop: request i starts at its due time,
// or as soon as one of conns in-flight slots frees up. The slot cap
// bounds the generator's connections; a request held back by it is
// still timed from when it was due, and the hold shows as lateness.
// It also returns the steal share of each second of the schedule; the
// last second runs until every request is done.
func drive(ctx context.Context, c *client.Client, reqs []request, conns int) ([]reply, []float64) {
	out := make([]reply, len(reqs))
	sem := make(chan struct{}, conns)
	var wg sync.WaitGroup
	var marks []int64 // steal at the start of each second, then at the end
	start := time.Now()
	for i := range reqs {
		for time.Duration(len(marks))*time.Second <= reqs[i].due {
			sleepUntil(ctx, start.Add(time.Duration(len(marks))*time.Second))
			marks = append(marks, stealTicks())
		}
		sleepUntil(ctx, start.Add(reqs[i].due))
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
		}
		if err := ctx.Err(); err != nil {
			for k := i; k < len(reqs); k++ {
				out[k].err = err
			}
			break
		}
		wg.Add(1)
		go func(i int) {
			defer func() { <-sem; wg.Done() }()
			out[i] = send(ctx, c, reqs[i], start)
		}(i)
	}
	wg.Wait()
	end := time.Since(start)
	marks = append(marks, stealTicks())
	shares := make([]float64, len(marks)-1)
	for k := range shares {
		d := time.Second
		if k == len(shares)-1 {
			d = end - time.Duration(k)*time.Second
		}
		shares[k] = stealShare(marks[k+1]-marks[k], d)
	}
	return out, shares
}

// sleepUntil returns at t or when ctx ends. Go timers can fire a
// millisecond late, which an open loop would add to every latency, so
// the last stretch before t is spent yielding in a loop instead.
func sleepUntil(ctx context.Context, t time.Time) {
	const spin = 2 * time.Millisecond
	if d := time.Until(t) - spin; d > 0 {
		timer := time.NewTimer(d)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return
		}
	}
	for time.Now().Before(t) && ctx.Err() == nil {
		runtime.Gosched()
	}
}

// send is one round trip: submit, await settlement, fetch the report.
func send(ctx context.Context, c *client.Client, r request, start time.Time) reply {
	ctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	t0 := time.Now()
	out := reply{late: t0.Sub(start) - r.due}
	out.sub, out.err = c.SubmitRetry(ctx, r.spec, 3)
	t1 := time.Now()
	out.submit = t1.Sub(t0)
	if out.err != nil {
		return out
	}
	out.st, out.err = c.Await(ctx, out.sub.ID)
	t2 := time.Now()
	out.await = t2.Sub(t1)
	if out.err != nil {
		return out
	}
	out.body, out.err = c.Report(ctx, out.sub.ID)
	t3 := time.Now()
	out.report = t3.Sub(t2)
	out.done = t3.Sub(start)
	out.latency = out.done - r.due
	return out
}

// servedStats is the part of a served report the checks read.
type servedStats struct {
	Stats struct {
		Committed      int64  `json:"committed"`
		CommitChecksum string `json:"commit_checksum"`
	} `json:"stats"`
}

// svcWindow is one measurement window of a service workload.
type svcWindow struct {
	replies           []reply
	ok                []int     // indexes of replies that passed every check
	calm              []int     // those of them due in a calm second
	steal             []float64 // steal share of each second
	span              time.Duration
	committed         int64 // events in the reports delivered
	execDelta         int64
	attempted, failed int
}

// latencies returns the latencies of the requests that passed every
// check and were due in a calm second (see steal.go).
func (w *svcWindow) latencies() []float64 {
	var xs []float64
	for _, i := range w.calm {
		xs = append(xs, ms(w.replies[i].latency))
	}
	return xs
}

// service is a running service workload: its daemon, client and, on
// svc-cached, the warm-up bytes every later answer must equal.
type service struct {
	p       plan
	cached  bool
	d       *daemon
	c       *client.Client
	conns   int
	pool    []simd.JobSpec
	ref     [][]byte // warm-up report bytes per pool spec
	events  []int64  // committed events per pool spec
	started int      // daemons started, naming each one's store
}

func runSvcDistinct(ctx context.Context, p plan) (outcome, error) {
	return runService(ctx, p, false)
}

func runSvcCached(ctx context.Context, p plan) (outcome, error) {
	return runService(ctx, p, true)
}

// serviceSpec is a service job: PHOLD on the service-default topology.
func serviceSpec(s sizes, seed uint64) simd.JobSpec {
	return simd.JobSpec{Model: "phold", EndTime: s.svcEnd, Seed: seed}
}

// uniqueSpecs draws n service specs with pairwise distinct seeds.
func uniqueSpecs(s sizes, seed, stream uint64, n int) []simd.JobSpec {
	seen := make(map[uint64]bool, n)
	var out []simd.JobSpec
	for k := uint64(0); len(out) < n; k++ {
		if sd := specSeed(seed, stream, k); !seen[sd] {
			seen[sd] = true
			out = append(out, serviceSpec(s, sd))
		}
	}
	return out
}

func runService(ctx context.Context, p plan, cached bool) (outcome, error) {
	rate := p.size.distinctRate
	if cached {
		rate = p.size.cachedRate
	}
	n := max(p.size.minRequests, int(math.Ceil(rate*p.window.Seconds())))
	s := &service{p: p, cached: cached, conns: runtime.NumCPU()}
	if cached {
		s.pool = uniqueSpecs(p.size, p.seed, streamPool, p.size.pool)
	}
	var setup timings
	err := s.setUp(ctx, (p.size.setups+1)/2, &setup)
	if s.d != nil {
		defer s.d.stop()
	}
	if err != nil {
		return outcome{}, err
	}
	o := outcome{attempted: len(s.pool)}
	if cached {
		o.failed = s.checkPool()
	}

	// Both windows' requests are fixed up front from the seed.
	var reqs []request
	if cached {
		pick := rand.New(rand.NewSource(int64(specSeed(p.seed, streamPick, 0))))
		for i := 0; i < 2*n; i++ {
			k := pick.Intn(len(s.pool))
			reqs = append(reqs, request{spec: s.pool[k], pool: k})
		}
	} else {
		for _, sp := range uniqueSpecs(p.size, p.seed, streamDistinct, 2*n) {
			reqs = append(reqs, request{spec: sp})
		}
	}
	for i := range reqs {
		reqs[i].due = time.Duration(float64(i%n) / rate * float64(time.Second))
	}

	u, err := s.window(ctx, reqs[:n])
	if err != nil {
		return outcome{}, err
	}
	o.attempted += u.attempted
	o.failed += u.failed
	lat := u.latencies()
	o.failed += tailFailures(lat)
	rss, err := peakRSS(s.d.cmd.Process.Pid)
	if err != nil {
		return outcome{}, err
	}
	failed, err := s.setUpAgain(ctx, p.size.setups/2, &setup)
	if err != nil {
		return outcome{}, err
	}
	o.attempted += p.size.setups / 2
	o.failed += failed
	if !p.traced {
		secs := u.span.Seconds()
		o.values = map[string]float64{
			"events_per_host_s": ratio(float64(u.committed), secs),
			"latency_p50_ms":    median(lat),
			"latency_p90_ms":    percentile(lat, 0.9),
			"throughput_jobs_s": ratio(float64(len(u.ok)), secs),
			"setup_s":           setup.median(),
			"peak_rss_mb":       rss,
		}
		logf("%d requests at %g/s, %d completed, %d timed in calm seconds, span %.3fs, late p90 %.3fms; steal share per second %.3f; set-up %v",
			n, rate, len(u.ok), len(lat), secs, percentile(lateness(u), 0.9), u.steal, &setup)
		return o, nil
	}

	t, err := s.window(ctx, reqs[n:])
	if err != nil {
		return outcome{}, err
	}
	o.attempted += t.attempted
	o.failed += t.failed + tailFailures(t.latencies())
	v := zeroLayers()
	v["trace.overhead_pct"] = 100 * (ratio(median(t.latencies()), median(lat)) - 1)
	var wait, run, submit, await, report, overhead []float64
	var busy time.Duration
	hits := 0
	for _, i := range t.ok {
		r := t.replies[i]
		var q, x time.Duration // a job born done from the cache never queued or ran
		if r.st.StartedAt != nil {
			q = r.st.StartedAt.Sub(r.st.SubmittedAt)
			if r.st.FinishedAt != nil {
				x = r.st.FinishedAt.Sub(*r.st.StartedAt)
			}
		}
		wait, run = append(wait, ms(q)), append(run, ms(x))
		busy += x
		if r.st.FinishedAt != nil {
			overhead = append(overhead, ms(r.latency-r.st.FinishedAt.Sub(r.st.SubmittedAt)))
		}
		submit, await, report = append(submit, ms(r.submit)), append(await, ms(r.await)), append(report, ms(r.report))
		if r.sub.CacheHitNow {
			hits++
		}
	}
	v["simd.queue_wait_p50_ms"] = median(wait)
	v["simd.queue_wait_p90_ms"] = percentile(wait, 0.9)
	v["simd.run_p50_ms"] = median(run)
	v["simd.busy_share"] = ratio(busy.Seconds(), float64(s.conns)*t.span.Seconds()) // the daemon runs conns workers
	v["simd.cache_hit_ratio"] = ratio(float64(hits), float64(len(t.ok)))
	v["simd.executions"] = float64(t.execDelta)
	v["client.submit_p50_ms"] = median(submit)
	v["client.await_p50_ms"] = median(await)
	v["client.report_p50_ms"] = median(report)
	v["client.http_overhead_p50_ms"] = median(overhead)
	v["client.gen_late_p90_ms"] = percentile(lateness(t), 0.9)

	// Replay sampled specs in-process through the same layers the daemon
	// runs; the replayed report bytes must equal the served ones.
	var specs []simd.JobSpec
	var served [][]byte
	if cached {
		specs, served = s.pool, s.ref
	} else {
		for _, i := range t.ok[:min(3, len(t.ok))] {
			specs = append(specs, reqs[n+i].spec)
			served = append(served, t.replies[i].body)
		}
	}
	if len(specs) == 0 {
		return outcome{}, errors.New("no completed request to replay")
	}
	attempted, failed, err := s.replay(ctx, specs, served, v)
	if err != nil {
		return outcome{}, err
	}
	o.attempted += attempted
	o.failed += failed
	if err := probeCommon(v, p, specs, served[0]); err != nil {
		return outcome{}, err
	}
	o.values = v
	return o, nil
}

// tailFailures counts a window whose latencies cannot support p90 as
// one failed check.
func tailFailures(lat []float64) int {
	if err := tailError(len(lat), 0.9); err != nil {
		logf("latency: %v", err)
		return 1
	}
	return 0
}

func lateness(w svcWindow) []float64 {
	var xs []float64
	for _, r := range w.replies {
		if r.err == nil {
			xs = append(xs, ms(r.late))
		}
	}
	return xs
}

// setUp starts reps daemons in turn, each on a fresh store and timed
// into setup, and on svc-cached executes the spec pool on each. The
// last one stays up in s.d to serve the windows.
func (s *service) setUp(ctx context.Context, reps int, setup *timings) error {
	for r := 0; r < reps; r++ {
		if s.d != nil {
			s.d.stop()
		}
		err := setup.time(func() error {
			var err error
			s.d, s.c, s.ref, err = s.start(ctx)
			return err
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// setUpAgain repeats the set-up reps times beside the serving daemon,
// stopping each new daemon once it is set up, so that setup_s also
// samples the host after the window and not only before it. Each
// svc-cached warm-up must serve the first warm-up's bytes again; it
// returns how many warm-ups differed.
func (s *service) setUpAgain(ctx context.Context, reps int, setup *timings) (int, error) {
	failed := 0
	for r := 0; r < reps; r++ {
		var d *daemon
		var ref [][]byte
		err := setup.time(func() error {
			var err error
			d, _, ref, err = s.start(ctx)
			return err
		})
		if err != nil {
			return 0, err
		}
		d.stop()
		for k := range ref {
			if !bytes.Equal(ref[k], s.ref[k]) {
				failed++
				logf("pool spec %d: a fresh daemon's report differs from the first warm-up's bytes", k)
			}
		}
	}
	return failed, nil
}

// start starts one daemon on a fresh store and, on svc-cached, executes
// the spec pool on it and returns the pool's report bytes.
func (s *service) start(ctx context.Context) (*daemon, *client.Client, [][]byte, error) {
	s.started++
	d, err := startDaemon(ctx, s.p.simdBin, filepath.Join(s.p.dir, "daemon-"+strconv.Itoa(s.started)), s.conns)
	if err != nil {
		return nil, nil, nil, err
	}
	c := client.New(d.base, client.WithHTTPClient(&http.Client{Transport: &http.Transport{
		MaxConnsPerHost: s.conns, MaxIdleConnsPerHost: s.conns,
	}}))
	if !s.cached {
		return d, c, nil, nil
	}
	reqs := make([]request, len(s.pool))
	for k := range reqs {
		reqs[k] = request{spec: s.pool[k], pool: k}
	}
	var ref [][]byte
	replies, _ := drive(ctx, c, reqs, s.conns)
	for k, r := range replies {
		if r.err != nil {
			d.stop()
			return nil, nil, nil, fmt.Errorf("warm-up of pool spec %d: %w", k, r.err)
		}
		ref = append(ref, r.body)
	}
	return d, c, ref, nil
}

// checkPool checks the warm-up reports against the sequential oracle
// and returns how many differ.
func (s *service) checkPool() int {
	failed := 0
	s.events = make([]int64, len(s.pool))
	for k, spec := range s.pool {
		want, msg := s.checkReport(spec, s.ref[k])
		s.events[k] = want.events
		if msg != "" {
			failed++
			logf("pool spec %d: %s", k, msg)
		}
	}
	return failed
}

// checkReport compares a served report with the sequential oracle.
func (s *service) checkReport(spec simd.JobSpec, body []byte) (expectation, string) {
	want, err := s.p.expect(spec)
	if err != nil {
		return want, fmt.Sprintf("oracle: %v", err)
	}
	var got servedStats
	if err := json.Unmarshal(body, &got); err != nil {
		return want, fmt.Sprintf("undecodable report: %v", err)
	}
	if got.Stats.CommitChecksum != metrics.Checksum(want.checksum) || got.Stats.Committed != want.events {
		return want, fmt.Sprintf("commit stream differs from the sequential oracle: checksum %s committed %d, want %s committed %d",
			got.Stats.CommitChecksum, got.Stats.Committed, metrics.Checksum(want.checksum), want.events)
	}
	return want, ""
}

// window drives one window of requests and checks every answer: the
// report against the oracle (svc-distinct) or byte-identical to the
// warm-up bytes as a cache hit (svc-cached), and the daemon's engine
// executions against the distinct specs submitted.
func (s *service) window(ctx context.Context, reqs []request) (svcWindow, error) {
	before, err := s.d.executions(ctx)
	if err != nil {
		return svcWindow{}, err
	}
	w := svcWindow{attempted: len(reqs)}
	w.replies, w.steal = drive(ctx, s.c, reqs, s.conns)
	calmSecond := make(map[int]bool)
	for _, k := range calm(w.steal) {
		calmSecond[k] = true
	}
	if err := ctx.Err(); err != nil {
		return w, err
	}
	after, err := s.d.executions(ctx)
	if err != nil {
		return w, err
	}
	w.execDelta = after - before
	for i, r := range w.replies {
		msg, events := "", int64(0)
		switch {
		case r.err != nil:
			msg = r.err.Error()
		case s.cached && !bytes.Equal(r.body, s.ref[reqs[i].pool]):
			msg = "cache hit bytes differ from the warm-up bytes"
		case s.cached && !r.sub.CacheHitNow:
			msg = "a warmed spec was not served from the cache"
		case s.cached:
			events = s.events[reqs[i].pool]
		default:
			var want expectation
			want, msg = s.checkReport(reqs[i].spec, r.body)
			events = want.events
		}
		if msg != "" {
			w.failed++
			logf("request %d (seed %d): %s", i, reqs[i].spec.Seed, msg)
			continue
		}
		w.ok = append(w.ok, i)
		if calmSecond[int(reqs[i].due/time.Second)] {
			w.calm = append(w.calm, i)
		}
		w.span = max(w.span, r.done)
		w.committed += events
	}
	wantExec := int64(len(reqs))
	if s.cached {
		wantExec = 0
	}
	if w.execDelta != wantExec {
		w.failed++
		logf("daemon executed %d engines for %d distinct new specs", w.execDelta, wantExec)
	}
	return w, nil
}

// replay runs the specs in-process through the layers the daemon runs —
// spec pipeline, engine with its metrics recorder, report marshal —
// untraced then traced, and fills the engine-side layers. Every run and
// every comparison of a replayed report with the served bytes is an
// attempted operation; it returns how many were attempted and failed.
func (s *service) replay(ctx context.Context, specs []simd.JobSpec, served [][]byte, v map[string]float64) (int, int, error) {
	cells, err := buildCells(specs, s.p.expect, true, 1, &timings{})
	if err != nil {
		return 0, 0, err
	}
	first := make([]*stats.Run, len(cells))
	u, err := measureEngine(ctx, cells, 0, false, first)
	if err != nil {
		return 0, 0, err
	}
	t, reports, err := traceEngine(ctx, s.p, cells, "core", u, 0, first, v)
	if err != nil {
		return 0, 0, err
	}
	attempted, failed := u.attempted+t.attempted+len(reports), u.failed+t.failed
	for k := range reports {
		if !bytes.Equal(reports[k], served[k]) {
			failed++
			logf("replayed report of seed %d differs from the served bytes", specs[k].Seed)
		}
	}
	return attempted, failed, nil
}
