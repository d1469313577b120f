package main

import (
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/simd"
)

// simdBin is a cmd/simd binary built once for the service workloads.
var simdBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "hostbench-test-")
	if err != nil {
		panic(err)
	}
	simdBin = filepath.Join(dir, "simd")
	out, err := exec.Command("go", "build", "-o", simdBin, "repro/cmd/simd").CombinedOutput()
	if err != nil {
		os.RemoveAll(dir)
		panic("build cmd/simd: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// smallSizes keep every workload to a second or two. The service
// windows keep 100 requests so the p90 tail rule still holds.
var smallSizes = sizes{
	nodes: 2, workers: 2, lps: 4, end: 5, consEnd: 5, svcEnd: 2,
	distinctRate: 100, cachedRate: 400, minRequests: 100, pool: 2,
	setups: 2, probeReps: 1,
}

func smallPlan(t *testing.T, traced bool) plan {
	return plan{seed: 7, window: 10 * time.Millisecond, traced: traced,
		simdBin: simdBin, dir: t.TempDir(), size: smallSizes}
}

func TestPercentileAndTailRule(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 100..1: percentile must sort
	}
	for _, c := range []struct{ p, want float64 }{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g of 1..100 = %g, want %g", c.p*100, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %g, want 0", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %g, want 2", got)
	}
	for _, c := range []struct {
		n      int
		beyond int
		ok     bool
	}{{100, 10, true}, {99, 9, false}, {101, 10, true}, {10, 1, false}, {1000, 100, true}} {
		if got := beyond(c.n, 0.9); got != c.beyond {
			t.Errorf("beyond(%d, 0.9) = %d, want %d", c.n, got, c.beyond)
		}
		if err := tailError(c.n, 0.9); (err == nil) != c.ok {
			t.Errorf("tailError(%d, 0.9) = %v, want ok=%v", c.n, err, c.ok)
		}
	}
	if err := tailError(20, 0.5); err != nil {
		t.Errorf("p50 of 20 samples has 10 beyond it: %v", err)
	}
}

func TestCalm(t *testing.T) {
	for _, c := range []struct {
		shares []float64
		want   []int
	}{
		{[]float64{0, 0.01, 0.02}, []int{0, 1, 2}},
		// Three stolen seconds of six are set aside.
		{[]float64{0, 0.2, 0.01, 0.05, 0.3, 0}, []int{0, 2, 5}},
		// Busy throughout: the calmest half stays, in order.
		{[]float64{0.3, 0.05, 0.2, 0.04, 0.5}, []int{1, 2, 3}},
		{nil, nil},
	} {
		got := calm(c.shares)
		if len(got) != len(c.want) {
			t.Errorf("calm(%v) = %v, want %v", c.shares, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("calm(%v) = %v, want %v", c.shares, got, c.want)
				break
			}
		}
	}
	// One tick of steal per second on every CPU is a share of 1/100.
	if got := stealShare(int64(2*runtime.NumCPU()), 2*time.Second); got != 0.01 {
		t.Errorf("stealShare = %g, want 0.01", got)
	}
}

// benchmarkJSON is the part of ../BENCHMARK.json the tests compare.
type benchmarkJSON struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkJSONNamesTheCode(t *testing.T) {
	b := readBenchmarkJSON(t)
	check := func(what string, declared []struct{ Name, Unit string }, code []metricDef) {
		if len(declared) != len(code) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the command %d", what, len(declared), len(code))
		}
		for i := range min(len(declared), len(code)) {
			if declared[i].Name != code[i].name || declared[i].Unit != code[i].unit {
				t.Errorf("%s #%d: BENCHMARK.json %s [%s], the command %s [%s]",
					what, i, declared[i].Name, declared[i].Unit, code[i].name, code[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var code []string
	for name := range workloads {
		code = append(code, name)
	}
	sort.Strings(names)
	sort.Strings(code)
	if len(names) != len(code) {
		t.Fatalf("BENCHMARK.json workloads %v, the command %v", names, code)
	}
	for i := range names {
		if names[i] != code[i] {
			t.Fatalf("BENCHMARK.json workloads %v, the command %v", names, code)
		}
	}
}

// TestEveryWorkloadPrintsItsNames runs every workload untraced and
// traced and compares the printed names and units with BENCHMARK.json.
func TestEveryWorkloadPrintsItsNames(t *testing.T) {
	b := readBenchmarkJSON(t)
	for _, w := range b.Workloads {
		for _, traced := range []bool{false, true} {
			want := b.EndToEnd
			if traced {
				want = b.PerLayer
			}
			res, err := run(context.Background(), w.Name, smallPlan(t, traced))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: printed %d metrics, BENCHMARK.json names %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: %s printed as %+v (present %v), want unit %s", w.Name, traced, m.Name, got, ok, m.Unit)
				}
			}
			if !traced {
				for _, name := range []string{"events_per_host_s", "latency_p50_ms", "throughput_jobs_s", "setup_s", "peak_rss_mb"} {
					if res.Metrics[name].Value <= 0 {
						t.Errorf("%s: %s = %g, want > 0", w.Name, name, res.Metrics[name].Value)
					}
				}
			}
		}
	}
}

// TestWrongExpectationFailsTheRun feeds the checks an oracle whose
// checksum is off by one: the engine and service checks must both fail.
func TestWrongExpectationFailsTheRun(t *testing.T) {
	for _, name := range []string{"tw-phold", "cons-nullmsg", "svc-distinct"} {
		p := smallPlan(t, false)
		p.expect = func(s simd.JobSpec) (expectation, error) {
			e, err := seqExpect(s)
			e.checksum++
			return e, err
		}
		res, err := run(context.Background(), name, p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s with a wrong expected checksum: correct=%v failed=%d, want a failed run", name, res.Correct, res.Failed)
		}
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := run(context.Background(), "nope", smallPlan(t, false)); err == nil {
		t.Fatal("unknown workload ran")
	}
}
