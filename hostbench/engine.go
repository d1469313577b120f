package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/conservative"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/seq"
	"repro/internal/simd"
	"repro/internal/stats"
	"repro/internal/vtime"
)

// expectation is the sequential oracle's result for one spec.
type expectation struct {
	checksum uint64
	events   int64
	hostNS   int64 // host time of the sequential run
}

// seqExpect runs internal/seq on the spec's model, topology, end time
// and seed: every engine must commit exactly this event stream.
func seqExpect(spec simd.JobSpec) (expectation, error) {
	b, err := build(spec)
	if err != nil {
		return expectation{}, err
	}
	start := time.Now()
	r := seq.New(b.model, b.lps, b.end, b.seed).Run()
	return expectation{checksum: r.Checksum, events: r.Processed, hostNS: time.Since(start).Nanoseconds()}, nil
}

// engine is what core.Engine and conservative.Engine have in common.
type engine interface {
	Run() (*stats.Run, error)
	Report(*stats.Run) *metrics.Report
}

// built is a spec built the way the service builds it: canonical, with
// its model, topology size, end time and seed, and a constructor for
// its engine on a given model and metrics recorder.
type built struct {
	spec      simd.JobSpec
	model     core.ModelFactory
	lps       int
	end       vtime.Time
	seed      uint64
	newEngine func(core.ModelFactory, *metrics.Recorder) engine
}

// build canonicalizes a spec and builds its Time Warp or conservative
// configuration.
func build(spec simd.JobSpec) (built, error) {
	c, err := spec.Canonical()
	if err != nil {
		return built{}, err
	}
	if c.Engine == "conservative" {
		cfg, err := c.BuildConservativeConfig()
		return built{c, cfg.Model, cfg.Topology.TotalLPs(), cfg.EndTime, cfg.Seed,
			func(m core.ModelFactory, r *metrics.Recorder) engine {
				k := cfg
				k.Model, k.Metrics = m, r
				return conservative.New(k)
			}}, err
	}
	cfg, err := c.BuildConfig()
	return built{c, cfg.Model, cfg.Topology.TotalLPs(), cfg.EndTime, cfg.Seed,
		func(m core.ModelFactory, r *metrics.Recorder) engine {
			k := cfg
			k.Model, k.Metrics = m, r
			return core.New(k)
		}}, err
}

// cell is one engine configuration with its oracle expectation.
type cell struct {
	built
	want expectation
	// service marks a cell replaying a service job: its engine carries a
	// metrics recorder and its report the service's label, as cmd/simd
	// does, so the replayed report bytes must equal the served ones.
	service bool
}

func newCell(spec simd.JobSpec, expect func(simd.JobSpec) (expectation, error), service bool) (cell, error) {
	b, err := build(spec)
	if err != nil {
		return cell{}, err
	}
	want, err := expect(b.spec)
	return cell{built: b, want: want, service: service}, err
}

// engine builds the cell's engine on the given model.
func (c *cell) engine(m core.ModelFactory) engine {
	var r *metrics.Recorder
	if c.service {
		r = metrics.NewRecorder()
	}
	return c.newEngine(m, r)
}

// twCells are tw-phold's inputs: the paper's engine under its three GVT
// regimes, one PHOLD scenario each.
func twCells(s sizes, seed uint64) []simd.JobSpec {
	base := simd.JobSpec{Nodes: s.nodes, WorkersPerNode: s.workers, LPsPerWorker: s.lps, EndTime: s.end}
	mattern, barrier, ca := base, base, base
	mattern.GVT, mattern.Scenario = "mattern", "comp"
	barrier.GVT, barrier.Scenario = "barrier", "comm"
	ca.GVT, ca.Scenario, ca.MixComp, ca.MixComm = "ca-gvt", "mixed", 10, 15
	return seeded([]simd.JobSpec{mattern, barrier, ca}, seed, streamEngine)
}

// consCells are cons-nullmsg's inputs: the CMB null-message engine on
// the same topology, PHOLD comp and comm.
func consCells(s sizes, seed uint64) []simd.JobSpec {
	base := simd.JobSpec{Engine: "conservative", Sync: "nullmsg",
		Nodes: s.nodes, WorkersPerNode: s.workers, LPsPerWorker: s.lps, EndTime: s.consEnd}
	comp, comm := base, base
	comp.Scenario, comm.Scenario = "comp", "comm"
	return seeded([]simd.JobSpec{comp, comm}, seed, streamEngine)
}

// seeded gives each spec its own seed drawn from the run's seed.
func seeded(specs []simd.JobSpec, seed, stream uint64) []simd.JobSpec {
	for k := range specs {
		specs[k].Seed = specSeed(seed, stream, uint64(k))
	}
	return specs
}

// Seed streams keep the inputs of different roles independent.
const (
	streamEngine = iota + 1
	streamDistinct
	streamPool
	streamPick
)

// specSeed derives a non-zero spec seed (splitmix64 finaliser).
func specSeed(seed, stream, k uint64) uint64 {
	z := seed*0x9e3779b97f4a7c15 + stream<<40 + k + 0x632be59bd9b4e019
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return 1 + z%(1<<31)
}

// buildCells is an engine workload's set-up: configs, models and oracle
// expectations for every cell. It runs reps times, each from a freshly
// collected heap and timed into setup, and returns the last set.
func buildCells(specs []simd.JobSpec, expect func(simd.JobSpec) (expectation, error), service bool, reps int, setup *timings) ([]cell, error) {
	var cells []cell
	for r := 0; r < reps; r++ {
		runtime.GC()
		err := setup.time(func() error {
			cells = cells[:0]
			for _, s := range specs {
				c, err := newCell(s, expect, service)
				if err != nil {
					return fmt.Errorf("set-up: %w", err)
				}
				cells = append(cells, c)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return cells, nil
}

// lastRun keeps a traced window's most recent engine per cell, for the
// report-marshal and store probes.
type lastRun struct {
	eng engine
	st  *stats.Run
}

// engineWindow is one measurement window of an engine workload.
type engineWindow struct {
	passes            []float64    // host ms per pass: one run of every cell
	steal             []float64    // steal share of each pass
	runs              []float64    // host ms per Engine.Run
	byCell            [][]timedRun // the same, per cell
	committed         []int64      // committed events of one run, per cell
	attempted, failed int
	// Traced windows only.
	mallocs, allocBytes uint64
	gcs                 uint32
	clock               modelClock
	last                []lastRun
}

// timedRun is one Engine.Run's host ms and the pass it ran in.
type timedRun struct {
	pass int
	ms   float64
}

// measureEngine runs passes over the cells, each cell once per pass,
// until the window has passed, and at least one pass. first holds each
// cell's first statistics: every later run of the cell must reproduce
// them exactly.
func measureEngine(ctx context.Context, cells []cell, window time.Duration, traced bool, first []*stats.Run) (engineWindow, error) {
	w := engineWindow{
		byCell:    make([][]timedRun, len(cells)),
		committed: make([]int64, len(cells)),
		last:      make([]lastRun, len(cells)),
	}
	var before runtime.MemStats
	if traced {
		runtime.ReadMemStats(&before)
	}
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < window; pass++ {
		var passMS float64
		passStart, stolen := time.Now(), stealTicks()
		for k := range cells {
			if err := ctx.Err(); err != nil {
				return w, err
			}
			c := &cells[k]
			model := c.model
			if traced {
				model = w.clock.wrap(model)
			}
			eng := c.engine(model)
			t := time.Now()
			st, err := eng.Run()
			d := time.Since(t)
			w.attempted++
			if err != nil {
				w.failed++
				logf("%s seed %d: run failed: %v", c.spec.Scenario, c.spec.Seed, err)
				continue
			}
			passMS += ms(d)
			w.runs = append(w.runs, ms(d))
			w.byCell[k] = append(w.byCell[k], timedRun{pass, ms(d)})
			w.committed[k] = st.Workers.Committed
			if msg := checkRun(c, st, &first[k]); msg != "" {
				w.failed++
				logf("%s %s seed %d: %s", c.spec.Engine, c.spec.Scenario, c.spec.Seed, msg)
			}
			if traced {
				w.last[k] = lastRun{eng, st}
			}
		}
		w.passes = append(w.passes, passMS)
		w.steal = append(w.steal, stealShare(stealTicks()-stolen, time.Since(passStart)))
	}
	if traced {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		w.mallocs = after.Mallocs - before.Mallocs
		w.allocBytes = after.TotalAlloc - before.TotalAlloc
		w.gcs = after.NumGC - before.NumGC
	}
	return w, nil
}

// checkRun compares a run against the oracle and against the cell's
// first run; it returns a reason on mismatch.
func checkRun(c *cell, st *stats.Run, first **stats.Run) string {
	if st.CommitChecksum != c.want.checksum || st.Workers.Committed != c.want.events {
		return fmt.Sprintf("commit stream differs from the sequential oracle: checksum %016x committed %d, want %016x committed %d",
			st.CommitChecksum, st.Workers.Committed, c.want.checksum, c.want.events)
	}
	if *first == nil {
		*first = st
	} else if *st != **first {
		return "simulated statistics differ between runs of one input"
	}
	return ""
}

func runTWPhold(ctx context.Context, p plan) (outcome, error) {
	return runEngineWorkload(ctx, p, twCells(p.size, p.seed), "core")
}

func runConsNullmsg(ctx context.Context, p plan) (outcome, error) {
	return runEngineWorkload(ctx, p, consCells(p.size, p.seed), "conservative")
}

// runEngineWorkload measures in-process engine runs. layer names the
// engine package whose per-layer metrics the traced pass fills.
func runEngineWorkload(ctx context.Context, p plan, specs []simd.JobSpec, layer string) (outcome, error) {
	var setup timings
	cells, err := buildCells(specs, p.expect, false, (p.size.setups+1)/2, &setup)
	if err != nil {
		return outcome{}, err
	}
	first := make([]*stats.Run, len(cells))
	// Warm-up: one checked run of the first cell, outside any window,
	// so heap growth and first-touch page faults bill nobody.
	warm, err := measureEngine(ctx, cells[:1], 0, false, first[:1])
	if err != nil {
		return outcome{}, err
	}
	u, err := measureEngine(ctx, cells, p.window, false, first)
	if err != nil {
		return outcome{}, err
	}
	o := outcome{attempted: warm.attempted + u.attempted, failed: warm.failed + u.failed}
	// The other half of the set-ups runs after the window, so that
	// setup_s samples the host at both ends of the run.
	if _, err := buildCells(specs, p.expect, false, p.size.setups/2, &setup); err != nil {
		return outcome{}, err
	}
	if !p.traced {
		passMS, committed := u.pass()
		passes, _ := u.calmPasses()
		rss, err := peakRSS(os.Getpid())
		if err != nil {
			return outcome{}, err
		}
		o.values = map[string]float64{
			"events_per_host_s": ratio(float64(committed), passMS/1e3),
			"latency_p50_ms":    median(passes),
			"latency_p90_ms":    percentile(passes, 0.9),
			"throughput_jobs_s": ratio(1, passMS/1e3),
			"setup_s":           setup.median(),
			"peak_rss_mb":       rss,
		}
		logf("%d passes over %d cells, %d calm; per-cell medians: %d committed events in %.1f host ms; steal share per pass %.3f; set-up %v",
			len(u.passes), len(cells), len(passes), committed, passMS, u.steal, &setup)
		if err := tailError(len(passes), 0.9); err != nil {
			logf("latency_p90_ms is a slowest-pass figure here: %v (see README.md)", err)
		}
		return o, nil
	}

	v := zeroLayers()
	t, reports, err := traceEngine(ctx, p, cells, layer, u, p.window, first, v)
	if err != nil {
		return outcome{}, err
	}
	o.attempted += t.attempted
	o.failed += t.failed
	v["trace.overhead_pct"] = 100 * (ratio(nsPerCommitted(t), nsPerCommitted(u)) - 1)
	if err := probeCommon(v, p, specs, reports[len(reports)-1]); err != nil {
		return outcome{}, err
	}
	o.values = v
	return o, nil
}

// calmPasses returns the host ms of the passes kept by steal (see steal.go),
// and the set of their indexes.
func (w engineWindow) calmPasses() ([]float64, map[int]bool) {
	var passes []float64
	keep := make(map[int]bool)
	for _, i := range calm(w.steal) {
		passes = append(passes, w.passes[i])
		keep[i] = true
	}
	return passes, keep
}

// pass is one run of every cell: the sum of each cell's median host
// time inside Engine.Run over the calm passes, and the events the cells
// commit. Medians over a cell's repetitions keep a host hiccup in one
// run out of the figure.
func (w engineWindow) pass() (float64, int64) {
	_, keep := w.calmPasses()
	var passMS float64
	var committed int64
	for k, runs := range w.byCell {
		var xs []float64
		for _, r := range runs {
			if keep[r.pass] {
				xs = append(xs, r.ms)
			}
		}
		passMS += median(xs)
		committed += w.committed[k]
	}
	return passMS, committed
}

func nsPerCommitted(w engineWindow) float64 {
	passMS, committed := w.pass()
	return ratio(passMS*1e6, float64(committed))
}

// traceEngine runs a traced window over the cells and fills the engine
// side of v from it and from the untraced window u: overhead factors
// against the sequential floor, allocations, the deterministic counts
// of one run of every cell, model self time, GC cycles and report
// marshalling. It returns the traced window and each cell's marshalled
// report.
func traceEngine(ctx context.Context, p plan, cells []cell, layer string, u engineWindow, window time.Duration, first []*stats.Run, v map[string]float64) (engineWindow, [][]byte, error) {
	t, err := measureEngine(ctx, cells, window, true, first)
	if err != nil {
		return t, nil, err
	}
	seqNS := seqFloor(cells, p.size.probeReps)
	v["seq.ns_per_event"] = seqNS
	var pass stats.Run // one run of every cell
	for _, st := range first {
		if st == nil {
			continue
		}
		pass.Workers.Add(&st.Workers)
		pass.GVTRounds += st.GVTRounds
		pass.MPIMessages += st.MPIMessages
		pass.NullMessages += st.NullMessages
		pass.PoolNews += st.PoolNews
		pass.PoolRecycled += st.PoolRecycled
	}
	committed := float64(pass.Workers.Committed)
	v[layer+".overhead_x"] = ratio(nsPerCommitted(u), seqNS)
	tCommitted := 0.0
	for k, runs := range t.byCell {
		tCommitted += float64(len(runs)) * float64(t.committed[k])
	}
	v[layer+".allocs_per_committed"] = ratio(float64(t.mallocs), tCommitted)
	if layer == "core" {
		v["core.bytes_per_committed"] = ratio(float64(t.allocBytes), tCommitted)
		v["core.pool_recycle_ratio"] = ratio(float64(pass.PoolRecycled), float64(pass.PoolNews+pass.PoolRecycled))
		v["core.efficiency"] = ratio(committed, float64(pass.Workers.Processed))
		v["core.rollbacks"] = float64(pass.Workers.Rollbacks)
		v["core.gvt_rounds"] = float64(pass.GVTRounds)
	} else {
		v["conservative.null_msgs_per_committed"] = ratio(float64(pass.NullMessages), committed)
		v["conservative.sync_rounds"] = float64(pass.GVTRounds)
	}
	v["mpi.msgs_per_committed"] = ratio(float64(pass.MPIMessages), committed)
	var tracedMS float64
	for _, x := range t.runs {
		tracedMS += x
	}
	v["model.self_share"] = ratio(float64(t.clock.self), tracedMS*1e6)
	v["model.send_ns"] = ratio(float64(t.clock.send), float64(t.clock.sends))
	v["runtime.gc_cycles"] = ratio(float64(t.gcs), float64(len(t.runs)))
	v["simd.engine_ms"] = median(t.runs)

	reports := make([][]byte, len(cells))
	var marshal []float64
	for k, l := range t.last {
		if l.eng == nil {
			return t, nil, fmt.Errorf("cell %d never completed a traced run", k)
		}
		start := time.Now()
		rep := l.eng.Report(l.st)
		if cells[k].service {
			rep.Config.Label = "simd/" + cells[k].spec.Model
		}
		b, err := rep.MarshalStable()
		if err != nil {
			return t, nil, fmt.Errorf("marshal report: %w", err)
		}
		marshal = append(marshal, ms(time.Since(start)))
		reports[k] = b
	}
	v["metrics.marshal_ms"] = median(marshal)
	return t, reports, nil
}

// seqFloor times internal/seq on every cell: host ns per event of the
// model plus pending-queue floor, the reference the engines' overhead
// factors divide by.
func seqFloor(cells []cell, reps int) float64 {
	var ns float64
	var events int64
	for _, c := range cells {
		var times []float64
		for r := 0; r < reps; r++ {
			e, err := seqExpect(c.spec)
			if err != nil {
				continue // newCell already built this spec once
			}
			times = append(times, float64(e.hostNS))
		}
		ns += median(times)
		events += c.want.events
	}
	return ratio(ns, float64(events))
}

// zeroLayers starts a traced result with every per-layer metric at 0:
// a layer the workload bypasses did no work.
func zeroLayers() map[string]float64 {
	v := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		v[d.name] = 0
	}
	return v
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "hostbench: "+format+"\n", args...)
}
