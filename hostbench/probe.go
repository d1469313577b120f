package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/sim"
	"repro/internal/simd"
	"repro/internal/store"
	"repro/internal/vtime"
)

// modelClock times a model from outside: it decorates a ModelFactory so
// every OnEvent, and the Spin and Send calls nested in it, are timed.
// The simulation kernel runs one process goroutine at a time and hands
// control over by channel, so the counters need no locking.
type modelClock struct {
	self  time.Duration // OnEvent minus its nested Spin and Send
	send  time.Duration
	sends int64
}

func (k *modelClock) wrap(f core.ModelFactory) core.ModelFactory {
	return func(lp event.LPID, total int) core.Model {
		return &clockedModel{Model: f(lp, total), k: k}
	}
}

type clockedModel struct {
	core.Model
	k   *modelClock
	ctx clockedCtx
}

func (m *clockedModel) OnEvent(ctx core.Context, ev *event.Event) {
	m.ctx = clockedCtx{Context: ctx, k: m.k}
	start := time.Now()
	m.Model.OnEvent(&m.ctx, ev)
	m.k.self += time.Since(start) - m.ctx.nested
}

// clockedCtx passes a Context through, timing Spin (which parks the
// worker in the kernel) and Send.
type clockedCtx struct {
	core.Context
	k      *modelClock
	nested time.Duration
}

func (c *clockedCtx) Spin(units int) {
	start := time.Now()
	c.Context.Spin(units)
	c.nested += time.Since(start)
}

func (c *clockedCtx) Send(dst event.LPID, delay vtime.Time, kind uint16, data []byte) {
	start := time.Now()
	c.Context.Send(dst, delay, kind, data)
	d := time.Since(start)
	c.nested += d
	c.k.send += d
	c.k.sends++
}

// probeCommon fills the probes every traced pass runs whatever its
// workload: the kernel microprobes, the spec pipeline over the
// workload's specs, and the store over the workload's report bytes.
func probeCommon(v map[string]float64, p plan, specs []simd.JobSpec, report []byte) error {
	reps := p.size.probeReps
	v["sim.advance_ns"], v["sim.advance_allocs"] = advanceProbe(reps)
	v["sim.mutex_handoff_ns"] = mutexProbe(reps)
	specMS, err := specProbe(specs, 10*reps)
	if err != nil {
		return err
	}
	v["simd.spec_ms"] = specMS
	put, get, appendMS, err := storeProbe(filepath.Join(p.dir, "store-probe"), report, 10*reps)
	if err != nil {
		return err
	}
	v["store.put_ms"], v["store.get_ms"], v["store.journal_append_ms"] = put, get, appendMS
	return nil
}

// advanceProbe times Proc.Advance on a bare kernel: 8 processes each
// advancing 2000 one-tick steps. It returns the median host ns and heap
// allocations per Advance.
func advanceProbe(reps int) (ns, allocs float64) {
	const procs, steps = 8, 2000
	var nsS, allocS []float64
	for r := 0; r < reps; r++ {
		env := sim.NewEnv()
		for i := 0; i < procs; i++ {
			env.Spawn("p"+strconv.Itoa(i), func(p *sim.Proc) {
				for s := 0; s < steps; s++ {
					p.Advance(1)
				}
			})
		}
		d, m := timeAllocs(func() { _ = env.Run() })
		nsS = append(nsS, float64(d.Nanoseconds())/(procs*steps))
		allocS = append(allocS, float64(m)/(procs*steps))
	}
	return median(nsS), median(allocS)
}

// mutexProbe times a contended sim.Mutex: two processes take turns, each
// holding the lock across a one-tick Advance, so every acquisition is a
// hand-off. It returns median host ns per acquisition.
func mutexProbe(reps int) float64 {
	const procs, steps = 2, 2000
	var nsS []float64
	for r := 0; r < reps; r++ {
		env := sim.NewEnv()
		mu := &sim.Mutex{Name: "probe"}
		for i := 0; i < procs; i++ {
			env.Spawn("p"+strconv.Itoa(i), func(p *sim.Proc) {
				for s := 0; s < steps; s++ {
					mu.Lock(p)
					p.Advance(1)
					mu.Unlock(p)
				}
			})
		}
		d, _ := timeAllocs(func() { _ = env.Run() })
		nsS = append(nsS, float64(d.Nanoseconds())/(procs*steps))
	}
	return median(nsS)
}

// timeAllocs runs fn and returns its host time and heap allocations.
func timeAllocs(fn func()) (time.Duration, uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	fn()
	d := time.Since(start)
	runtime.ReadMemStats(&after)
	return d, after.Mallocs - before.Mallocs
}

// specProbe times the service's spec pipeline — Canonical, Hash and
// BuildConfig (or BuildConservativeConfig) — and returns median ms per
// spec.
func specProbe(specs []simd.JobSpec, reps int) (float64, error) {
	var times []float64
	for r := 0; r < reps; r++ {
		for _, s := range specs {
			start := time.Now()
			b, err := build(s)
			if err == nil {
				_, err = b.spec.Hash()
			}
			if err != nil {
				return 0, fmt.Errorf("spec probe: %w", err)
			}
			times = append(times, ms(time.Since(start)))
		}
	}
	return median(times), nil
}

// storeProbe publishes the payload under n content addresses into a
// fresh store, reads each back, and appends a begin and an end journal
// record per address. It returns median ms per Put, Get and append.
func storeProbe(dir string, payload []byte, n int) (put, get, appendMS float64, err error) {
	if len(payload) == 0 {
		return 0, 0, 0, fmt.Errorf("store probe: no report bytes")
	}
	st, err := store.Open(store.Options{Dir: filepath.Join(dir, "store")})
	if err != nil {
		return 0, 0, 0, err
	}
	defer st.Close()
	hashes := make([]string, n)
	var puts, gets, appends []float64
	for i := range hashes {
		sum := sha256.Sum256([]byte("hostbench-probe-" + strconv.Itoa(i)))
		hashes[i] = hex.EncodeToString(sum[:])
		start := time.Now()
		if err := st.Put(hashes[i], payload); err != nil {
			return 0, 0, 0, fmt.Errorf("store probe: put: %w", err)
		}
		puts = append(puts, ms(time.Since(start)))
	}
	for _, h := range hashes {
		start := time.Now()
		b, ok := st.Get(h)
		gets = append(gets, ms(time.Since(start)))
		if !ok || string(b) != string(payload) {
			return 0, 0, 0, fmt.Errorf("store probe: get %s returned other bytes", h[:12])
		}
	}
	j, err := store.OpenJournal(filepath.Join(dir, "journal.ndjson"), nil, nil)
	if err != nil {
		return 0, 0, 0, err
	}
	defer j.Close()
	spec := json.RawMessage(`{"model":"phold"}`)
	for _, h := range hashes {
		start := time.Now()
		if err := j.Begin(h, spec); err != nil {
			return 0, 0, 0, fmt.Errorf("store probe: journal: %w", err)
		}
		mid := time.Now()
		if err := j.End(h, "done"); err != nil {
			return 0, 0, 0, fmt.Errorf("store probe: journal: %w", err)
		}
		appends = append(appends, ms(mid.Sub(start)), ms(time.Since(mid)))
	}
	return median(puts), median(gets), median(appends), nil
}

// peakRSS returns a process's peak resident set (VmHWM) in MiB.
func peakRSS(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/%d/status", pid)
}
