package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by nearest rank; xs is
// sorted in place. Zero for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(q*float64(len(xs))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// procSample is the process-wide cost counters at one instant.
type procSample struct {
	at      time.Time
	cpu     time.Duration // user + system
	mallocs uint64
	numGC   uint32
	pauseNs uint64
}

func sampleProc() procSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSample{
		at:      time.Now(),
		cpu:     cpuTime(),
		mallocs: ms.Mallocs,
		numGC:   ms.NumGC,
		pauseNs: ms.PauseTotalNs,
	}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// costMetrics adds the per-op process costs between two samples.
func costMetrics(ms metrics, from, to procSample, ops int64) {
	if ops <= 0 {
		ops = 1
	}
	ms.set("cpu_us_per_op", "us", float64((to.cpu-from.cpu).Microseconds())/float64(ops))
	ms.set("allocs_per_op", "count", float64(to.mallocs-from.mallocs)/float64(ops))
	ms.set("peak_rss_mb", "MB", peakRSSMB())
}

// runtimeMetrics adds the Go runtime's per-layer numbers over a phase.
func runtimeMetrics(ms metrics, from, to procSample, ops int64) {
	if ops <= 0 {
		ops = 1
	}
	ms.set("runtime.gc_cycles_per_kop", "count", 1000*float64(to.numGC-from.numGC)/float64(ops))
	ms.set("runtime.gc_pause_ms", "ms", float64(to.pauseNs-from.pauseNs)/1e6)
}

// commit names the code under test: the git revision run.sh passes in
// PERFBENCH_COMMIT, else a digest of the checkout's Go sources (the
// benchmark also runs in exported trees that carry no git metadata).
func commit() string {
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		return c
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		h.Write([]byte(path))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// windows splits a timed phase into consecutive windows and keeps each
// window's throughput and latency percentiles. Reporting the median
// over windows keeps a transient stall on a shared host from moving a
// run's figures.
type windows struct {
	length time.Duration
	start  time.Time
	ops    int64
	lat    []float64
	// rate, p50 and p99 hold one entry per closed window.
	rate, p50, p99 []float64
}

func newWindows(length time.Duration, start time.Time) *windows {
	return &windows{length: length, start: start}
}

// record adds ops completed and their latencies (ms), closing the
// window once it is length long.
func (w *windows) record(ops int64, lat []float64, now time.Time) {
	w.ops += ops
	w.lat = append(w.lat, lat...)
	if now.Sub(w.start) >= w.length {
		w.close(now)
	}
}

func (w *windows) close(now time.Time) {
	if w.ops == 0 {
		return
	}
	w.rate = append(w.rate, float64(w.ops)/now.Sub(w.start).Seconds())
	w.p50 = append(w.p50, quantile(w.lat, 0.50))
	w.p99 = append(w.p99, quantile(w.lat, 0.99))
	w.start, w.ops, w.lat = now, 0, w.lat[:0]
}

// finish closes a trailing partial window only when no window closed
// (a run shorter than one window).
func (w *windows) finish(now time.Time) {
	if len(w.rate) == 0 {
		w.close(now)
	}
}

// set reports the medians over windows as ops_per_s and the latency
// percentiles.
func (w *windows) set(ms metrics) {
	ms.set("ops_per_s", "ops/s", median(w.rate))
	ms.set("latency_p50_ms", "ms", median(w.p50))
	ms.set("latency_p99_ms", "ms", median(w.p99))
}
