package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func minOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs {
		m = min(m, x)
	}
	return m
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

// percentileMS returns the nearest-rank p-th percentile of ds in
// milliseconds and how many samples lie strictly beyond its rank.
func percentileMS(ds []time.Duration, p float64) (float64, int) {
	if len(ds) == 0 {
		return 0, 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(p*float64(len(s))+0.999999999) - 1
	idx = max(0, min(idx, len(s)-1))
	return float64(s[idx].Nanoseconds()) / 1e6, len(s) - 1 - idx
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set size in MiB (Linux
// reports ru_maxrss in KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// memSampler tracks, over one pass, the peak of the memory the Go
// runtime holds from the OS: everything it has mapped less what it has
// released. That is the process's resident set less its shared binary
// text. Sampling per pass lets a run report the median pass instead of
// the lifetime maximum, which a single coincidence of two large
// analyses sets.
type memSampler struct {
	stop, done chan struct{}
	peak       uint64 // written by the sampling goroutine until done closes
}

// memSampleEvery is the sampling period; a GC cycle of the workloads
// lasts longer, so the peak before each collection is seen.
const memSampleEvery = 2 * time.Millisecond

func startMemSampler() *memSampler {
	m := &memSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		s := []metrics.Sample{
			{Name: "/memory/classes/total:bytes"},
			{Name: "/memory/classes/heap/released:bytes"},
		}
		t := time.NewTicker(memSampleEvery)
		defer t.Stop()
		for {
			metrics.Read(s)
			if s[0].Value.Kind() == metrics.KindUint64 && s[1].Value.Kind() == metrics.KindUint64 {
				m.peak = max(m.peak, s[0].Value.Uint64()-s[1].Value.Uint64())
			}
			select {
			case <-m.stop:
				return
			case <-t.C:
			}
		}
	}()
	return m
}

// finish stops the sampler, waits for it, and returns the peak in MiB.
func (m *memSampler) finish() float64 {
	close(m.stop)
	<-m.done
	return float64(m.peak) / (1 << 20)
}

// runtimeDelta is the Go runtime's allocation and GC work over a pass.
type runtimeDelta struct {
	allocBytes, gcCycles uint64
	gcCPU                float64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

func readRuntime() runtimeDelta {
	s := append([]metrics.Sample(nil), runtimeSamples...)
	metrics.Read(s)
	var d runtimeDelta
	if s[0].Value.Kind() == metrics.KindUint64 {
		d.allocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		d.gcCycles = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		d.gcCPU = s[2].Value.Float64()
	}
	return d
}

func (d runtimeDelta) sub(o runtimeDelta) runtimeDelta {
	return runtimeDelta{
		allocBytes: d.allocBytes - o.allocBytes,
		gcCycles:   d.gcCycles - o.gcCycles,
		gcCPU:      d.gcCPU - o.gcCPU,
	}
}

// sourceDigest hashes the Go sources and module files under the working
// directory, naming the code measured even where no VCS metadata
// exists. Hidden directories (build outputs) are skipped.
func sourceDigest() string {
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
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, path+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
