package main

import (
	"os"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"copa/internal/obs"
)

// quantile returns the p-quantile (0..1) of xs by the nearest-rank rule;
// 0 for an empty sample.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(p*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never reaches).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// regDelta is the change of the process metric registry over a window.
type regDelta struct{ a, b obs.Snapshot }

func snapshot() obs.Snapshot { return obs.Default().Snapshot() }

func (d regDelta) counter(name string) float64 {
	return float64(d.b.Counters[name] - d.a.Counters[name])
}

// hist returns the count and sum deltas of a histogram or timer.
func (d regDelta) hist(name string) (count, sum float64) {
	if v, ok := d.b.Timers[name]; ok {
		w := d.a.Timers[name]
		return float64(v.Count - w.Count), v.Sum - w.Sum
	}
	v, w := d.b.Histograms[name], d.a.Histograms[name]
	return float64(v.Count - w.Count), v.Sum - w.Sum
}

// histMean is the mean observation of a histogram over the window.
func (d regDelta) histMean(name string) float64 {
	n, s := d.hist(name)
	return ratio(s, n)
}

// procSample is a reading of the process's own resource counters and of
// the VM's CPU counters.
type procSample struct {
	wall     time.Time
	vm       vmCPU
	cpu      time.Duration // user + system
	allocs   uint64        // heap bytes allocated
	gcCycles uint64
	gcCPU    float64 // seconds
	allCPU   float64 // seconds, as the Go runtime accounts it
}

var rtSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func sampleProc() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := make([]metrics.Sample, len(rtSamples))
	copy(s, rtSamples)
	metrics.Read(s)
	return procSample{
		wall:     time.Now(),
		vm:       readVMCPU(),
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocs:   s[0].Value.Uint64(),
		gcCycles: s[1].Value.Uint64(),
		gcCPU:    s[2].Value.Float64(),
		allCPU:   s[3].Value.Float64(),
	}
}

// vmCPU is the first line of /proc/stat: the CPU time of all the VM's
// cores, in clock ticks, and the part of it the hypervisor gave to other
// tenants of the machine (steal).
type vmCPU struct{ total, steal float64 }

func readVMCPU() vmCPU {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return vmCPU{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	var c vmCPU
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user.
	for i := 1; i <= 8 && i < len(f); i++ {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return vmCPU{}
		}
		c.total += v
		if i == 8 {
			c.steal = v
		}
	}
	return c
}

// stolen is the share of the VM's CPU time stolen between a and b; 0
// where /proc/stat cannot be read.
func stolen(a, b procSample) float64 {
	return ratio(b.vm.steal-a.vm.steal, b.vm.total-a.vm.total)
}

// ownSeconds is the wall time from a to b less its stolen share: the time
// the machine actually gave the VM. A VM that shares its machine loses CPU
// to the other tenants; on the 2-vCPU reference host steal moved between
// 0 and 33% of the VM's CPU time in episodes of seconds to minutes, and a
// CPU-bound op that runs through an episode takes longer by about
// 1/(1-steal). The hypervisor accounts steal itself, so no change to the
// program moves it.
func ownSeconds(a, b procSample) float64 {
	return b.wall.Sub(a.wall).Seconds() * (1 - stolen(a, b))
}

// rssPeak polls the process's resident set size over a measured window
// and keeps the largest reading. getrusage's peak cannot be reset, so it
// would report set-up's peak instead, which for serve-hot (priming three
// times) varied by a quarter from run to run.
type rssPeak struct {
	peak     atomic.Int64 // bytes
	quit     chan struct{}
	finished chan struct{}
}

func startRSSPeak() *rssPeak {
	r := &rssPeak{quit: make(chan struct{}), finished: make(chan struct{})}
	r.sample()
	go func() {
		defer close(r.finished)
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-r.quit:
				return
			case <-t.C:
				r.sample()
			}
		}
	}()
	return r
}

// sample reads the resident page count from /proc/self/statm.
func (r *rssPeak) sample() {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return
	}
	if b := pages * int64(os.Getpagesize()); b > r.peak.Load() {
		r.peak.Store(b)
	}
}

func (r *rssPeak) stop() {
	close(r.quit)
	<-r.finished
	r.sample()
}

func (r *rssPeak) peakMB() float64 { return float64(r.peak.Load()) / (1 << 20) }

// settle collects set-up garbage and returns it to the operating system,
// so neither the collection nor set-up's resident memory is billed to the
// measured window.
func settle() { debug.FreeOSMemory() }
