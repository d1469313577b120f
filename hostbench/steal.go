package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// On a shared VM the hypervisor takes CPU from the guest in bursts that
// last from seconds to minutes, and the guest kernel counts that time as
// steal in /proc/stat. A burst moves a 2 ms cache hit's p90 by three or
// four times and an engine pass by a quarter, whatever the code does. So
// each workload records steal per sample (a one-second slice of a
// service window, or one engine pass) and sets aside the samples taken
// while the hypervisor stole more than maxStealShare of the machine.
// The choice rests on steal alone, never on the measured time, so a
// change that slows part of a window still shows in the samples kept.

// maxStealShare is the share of the machine's CPU time the hypervisor
// may take during a sample before the sample is set aside. Calm seconds
// on a 2-vCPU VM read 0-2 ticks (up to 1%); bursts read 4-60 (2-30%).
const maxStealShare = 0.02

// ticksPerSecond is USER_HZ, the unit of /proc/stat's counters, which
// Linux fixes at 100 for user space.
const ticksPerSecond = 100

// stealTicks returns the machine's steal counter from /proc/stat, summed
// over its CPUs, in ticks. Where there is no such counter it returns 0,
// so every sample reads as calm.
func stealTicks() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	n, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// stealShare is the share of the machine's CPU time that ticks of steal
// took over d.
func stealShare(ticks int64, d time.Duration) float64 {
	return ratio(float64(ticks), d.Seconds()*ticksPerSecond*float64(runtime.NumCPU()))
}

// calm returns, in order, the indexes of the samples to keep, given each
// sample's steal share: those at or below maxStealShare, or, when those
// are fewer than half, the half with the least steal. A run that found
// the host busy throughout so still reports its calmest half.
func calm(shares []float64) []int {
	var keep []int
	for i, s := range shares {
		if s <= maxStealShare {
			keep = append(keep, i)
		}
	}
	if 2*len(keep) >= len(shares) {
		return keep
	}
	keep = make([]int, len(shares))
	for i := range keep {
		keep[i] = i
	}
	sort.SliceStable(keep, func(a, b int) bool { return shares[keep[a]] < shares[keep[b]] })
	keep = keep[:(len(keep)+1)/2]
	sort.Ints(keep)
	return keep
}

// timings collects repeated timings with the steal share during each.
type timings struct{ secs, steal []float64 }

// time runs fn and records its host seconds and steal share.
func (t *timings) time(fn func() error) error {
	stolen, start := stealTicks(), time.Now()
	err := fn()
	d := time.Since(start)
	t.secs = append(t.secs, d.Seconds())
	t.steal = append(t.steal, stealShare(stealTicks()-stolen, d))
	return err
}

// median is the median of the calm timings.
func (t *timings) median() float64 {
	var xs []float64
	for _, i := range calm(t.steal) {
		xs = append(xs, t.secs[i])
	}
	return median(xs)
}

// String lists the timings in ms, each with its steal share, for the log.
func (t *timings) String() string {
	var b strings.Builder
	for i := range t.secs {
		fmt.Fprintf(&b, " %.2fms/%.2f", t.secs[i]*1e3, t.steal[i])
	}
	return "[" + strings.TrimSpace(b.String()) + "]"
}
