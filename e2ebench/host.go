package main

// Process and host counters read around each timed phase. Everything
// here describes the environment or the whole process, never one layer:
// CPU time from getrusage, heap and GC figures from runtime/metrics,
// disk writes from /proc/self/io, steal ticks from /proc/stat, and a
// fixed CPU kernel whose time shows host drift between runs.

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// counters is one snapshot of the process-wide counters a timed phase
// is measured between.
type counters struct {
	at         time.Time
	cpu        time.Duration // user+sys of the whole process
	sys        time.Duration // the sys part of cpu
	allocBytes uint64        // cumulative heap allocation
	gcCPU      float64       // cumulative GC CPU seconds (runtime estimate)
	totalCPU   float64       // cumulative CPU seconds (same estimate)
	writeBytes uint64        // bytes this process caused to reach storage
	steal      uint64        // host steal ticks
	ticks      uint64        // host ticks of every kind
}

var sampleNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func snapshot() counters {
	c := counters{at: time.Now()}
	c.cpu, c.sys = processCPU()
	samples := make([]metrics.Sample, len(sampleNames))
	for i, n := range sampleNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	c.allocBytes = sampleUint(samples[0])
	c.gcCPU = sampleFloat(samples[1])
	c.totalCPU = sampleFloat(samples[2])
	c.writeBytes = procWriteBytes()
	c.steal, c.ticks = procStatSteal()
	return c
}

func sampleUint(s metrics.Sample) uint64 {
	if s.Value.Kind() == metrics.KindUint64 {
		return s.Value.Uint64()
	}
	return 0
}

func sampleFloat(s metrics.Sample) float64 {
	if s.Value.Kind() == metrics.KindFloat64 {
		return s.Value.Float64()
	}
	return 0
}

// processCPU returns the process's user+sys CPU time and its sys part.
func processCPU() (total, sys time.Duration) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), time.Duration(ru.Stime.Nano())
}

// liveHeap forces a collection and returns the live heap it marked.
func liveHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return sampleUint(s[0])
}

// procWriteBytes reads write_bytes from /proc/self/io; 0 where the file
// is unavailable.
func procWriteBytes() uint64 {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "write_bytes: "); ok {
			n, _ := strconv.ParseUint(v, 10, 64)
			return n
		}
	}
	return 0
}

// procStatSteal reads the aggregate cpu line of /proc/stat: steal ticks
// and the sum of user, nice, system, idle, iowait, irq, softirq and
// steal. Guest time is already counted in user.
func procStatSteal() (steal, total uint64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i := 1; i <= 8; i++ {
		n, _ := strconv.ParseUint(fields[i], 10, 64)
		total += n
		if i == 8 {
			steal = n
		}
	}
	return steal, total
}

// stealFrac is the share of host ticks stolen between two snapshots.
func stealFrac(a, b counters) float64 {
	if b.ticks <= a.ticks {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.ticks-a.ticks)
}

// refSink keeps the reference kernel's result observable.
var refSink uint64

// refTable is the reference kernel's 16 MiB working set: larger than a
// typical last-level cache, so the kernel's time moves with memory
// contention from neighbours as well as with CPU speed.
var refTable = func() []uint64 {
	t := make([]uint64, 1<<21)
	for i := range t {
		t[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	return t
}()

// refKernel is a fixed, allocation-free kernel that touches no flagsim
// code: a dependent xorshift chain, then a dependent random read walk
// over refTable. Its time moves only when the host does.
func refKernel() {
	x := uint64(88172645463325252)
	for i := 0; i < 1<<22; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	for i := 0; i < 1<<17; i++ {
		x = x*6364136223846793005 + refTable[x>>(64-21)] // high bits index all 1<<21 slots
	}
	refSink += x
}

// hostProbe times the reference kernel five times and reports the
// median in milliseconds, with the steal share over the same window.
func hostProbe() (refMS, steal float64) {
	before := snapshot()
	times := make([]float64, 5)
	for i := range times {
		t0 := time.Now()
		refKernel()
		times[i] = float64(time.Since(t0)) / 1e6
	}
	sort.Float64s(times)
	return times[len(times)/2], stealFrac(before, snapshot())
}
