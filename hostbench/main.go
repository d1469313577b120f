// Command hostbench is the repository's host-time benchmark. It runs
// one named workload for a fixed measurement window, checks every
// output against the sequential oracle or the bytes it served before,
// and prints one JSON result line as the last line of standard output:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{NAME:{"value":V,"unit":U},...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 a
// traced pass prints the per-layer ones instead. Simulated statistics
// (committed counts, checksums, rollbacks) are correctness gates here,
// never metrics: every metric is host time, host memory or a ratio of
// host-side work. See README.md in this directory for the workloads,
// the layer map and how to run it; run.sh builds and invokes it.
//
//	go build -o hostbench . && go build -o simd repro/cmd/simd
//	./hostbench -workload tw-phold -seed 1 -seconds 20 -trace 0 -simd ./simd
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/simd"
)

// metricDef names one printed metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists what a user of the engine or the service sees. Every
// workload prints every one of them (see README.md for what each means
// on an engine workload and on a service workload).
var endToEnd = []metricDef{
	{"events_per_host_s", "events/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"throughput_jobs_s", "jobs/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
}

// perLayer lists the traced pass's layer costs. A layer that a workload
// bypasses reads 0 on it.
var perLayer = []metricDef{
	{"sim.advance_ns", "ns"},
	{"sim.advance_allocs", "allocs"},
	{"sim.mutex_handoff_ns", "ns"},
	{"seq.ns_per_event", "ns"},
	{"core.overhead_x", "x"},
	{"core.allocs_per_committed", "allocs"},
	{"core.bytes_per_committed", "B"},
	{"core.pool_recycle_ratio", "ratio"},
	{"core.efficiency", "ratio"},
	{"core.rollbacks", "count"},
	{"core.gvt_rounds", "count"},
	{"conservative.overhead_x", "x"},
	{"conservative.allocs_per_committed", "allocs"},
	{"conservative.null_msgs_per_committed", "ratio"},
	{"conservative.sync_rounds", "count"},
	{"mpi.msgs_per_committed", "ratio"},
	{"model.self_share", "ratio"},
	{"model.send_ns", "ns"},
	{"runtime.gc_cycles", "count"},
	{"simd.queue_wait_p50_ms", "ms"},
	{"simd.queue_wait_p90_ms", "ms"},
	{"simd.run_p50_ms", "ms"},
	{"simd.busy_share", "ratio"},
	{"simd.engine_ms", "ms"},
	{"simd.spec_ms", "ms"},
	{"metrics.marshal_ms", "ms"},
	{"store.put_ms", "ms"},
	{"store.get_ms", "ms"},
	{"store.journal_append_ms", "ms"},
	{"simd.cache_hit_ratio", "ratio"},
	{"simd.executions", "count"},
	{"client.submit_p50_ms", "ms"},
	{"client.await_p50_ms", "ms"},
	{"client.report_p50_ms", "ms"},
	{"client.http_overhead_p50_ms", "ms"},
	{"client.gen_late_p90_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(context.Context, plan) (outcome, error){
	"tw-phold":     runTWPhold,
	"cons-nullmsg": runConsNullmsg,
	"svc-distinct": runSvcDistinct,
	"svc-cached":   runSvcCached,
}

// sizes fixes how much work a workload does. The benchmark runs
// benchSizes; the self-tests shrink them.
type sizes struct {
	nodes, workers, lps int     // engine cells' topology
	end                 float64 // tw-phold cells' virtual end time
	consEnd             float64 // cons-nullmsg cells' virtual end time
	svcEnd              float64 // service specs' end time (0: the service default)
	distinctRate        float64 // svc-distinct offered rate, requests/s
	cachedRate          float64 // svc-cached offered rate, requests/s
	minRequests         int     // timed requests per service window, at least
	pool                int     // svc-cached spec pool
	setups              int     // set-up repetitions, half before the window and half after; setup_s is the calm ones' median
	probeReps           int     // repetitions of each standalone probe
}

// benchSizes are the benchmark's fixed inputs. The engine cells run
// the paper's 4 nodes × 4 workers × 16 LPs; the null-message cells stop
// at a third of the Time Warp end time so that each cell still repeats
// several times in a window. The service jobs run an eighth of the
// default end time (about 40 ms each on two vCPUs), offered at a fifth
// of two workers' capacity so latency does not grow with run length;
// minRequests keeps ten samples beyond p90 in any window. The svc-cached
// pool holds eight specs: its warm-up is most of that workload's set-up,
// and eight engine runs vary less from seed to seed than four.
var benchSizes = sizes{
	nodes: 4, workers: 4, lps: 16, end: 15, consEnd: 5, svcEnd: 2.5,
	distinctRate: 10, cachedRate: 80, minRequests: 100, pool: 8,
	setups: 16, probeReps: 5,
}

// plan is one invocation of a workload.
type plan struct {
	seed    uint64
	window  time.Duration // measurement window (a traced run has two)
	traced  bool
	simdBin string // built cmd/simd binary, for the service workloads
	dir     string // scratch directory for daemon stores and probes
	size    sizes
	// expect is the oracle every engine result is checked against.
	// Tests replace it to prove that a wrong expectation fails the run.
	expect func(simd.JobSpec) (expectation, error)
}

// outcome is what a workload run measured.
type outcome struct {
	attempted, failed int
	values            map[string]float64
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run executes the named workload and assembles its result line.
func run(ctx context.Context, name string, p plan) (result, error) {
	fn, ok := workloads[name]
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q (want tw-phold | cons-nullmsg | svc-distinct | svc-cached)", name)
	}
	if p.expect == nil {
		p.expect = seqExpect
	}
	o, err := fn(ctx, p)
	if err != nil {
		return result{}, err
	}
	defs := endToEnd
	if p.traced {
		defs = perLayer
	}
	res := result{
		Correct:   o.failed == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, d := range defs {
		v, ok := o.values[d.name]
		if !ok {
			return result{}, fmt.Errorf("workload %s did not measure %s", name, d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return res, nil
}

func main() {
	var (
		workload = flag.String("workload", "", "tw-phold | cons-nullmsg | svc-distinct | svc-cached")
		seed     = flag.Uint64("seed", 1, "input seed: the same seed generates the same inputs")
		seconds  = flag.Float64("seconds", 10, "measurement window in seconds")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced pass with per-layer metrics")
		simdBin  = flag.String("simd", "", "built cmd/simd binary (service workloads)")
		dir      = flag.String("dir", "", "scratch directory (default: a new temporary directory)")
	)
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "hostbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	scratch, err := os.MkdirTemp(*dir, "hostbench-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		os.Exit(1)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	res, err := run(ctx, *workload, plan{
		seed:    *seed,
		window:  time.Duration(*seconds * float64(time.Second)),
		traced:  *trace == 1,
		simdBin: *simdBin,
		dir:     scratch,
		size:    benchSizes,
	})
	stop()
	if rmErr := os.RemoveAll(scratch); rmErr != nil {
		fmt.Fprintln(os.Stderr, "hostbench: removing scratch:", rmErr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
