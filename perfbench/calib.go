package main

import (
	"sort"
	"sync"
	"time"
)

// The machine this benchmark runs on is a share of a host whose other
// tenants contend for its caches and memory, and its speed on this
// checker drifts by a factor of up to two over tens of seconds: identical
// passes, with identical state and solver counts, took 2.0 s in one
// minute and 5.6 s in another. A run therefore measures the machine's
// speed beside the program, while the program runs. speedKernel is a
// fixed piece of work that belongs to the benchmark, not to the code
// under test, so no change to the checker moves it. A speedMeter times
// it between the units of a pass (corpus programs, service requests,
// and every samplePeriod inside table2's explorations), and the pass's
// times are scaled by the median kernel time against speedRef, its time
// on the reference machine. A change to the checker moves the scaled
// time exactly as it moves the raw time; a slower machine moves the
// kernel and the pass alike, and cancels. The kernel's own time is
// taken out of the pass it ran in.

// speedRef is speedKernel's median time on the reference machine (a
// shared 2-vCPU Linux container, Go 1.24) in a quiet minute. Scaled
// times read as times on that machine at that speed.
const speedRef = 450 * time.Microsecond

// samplePeriod is how often a table2 exploration stops to sample.
const samplePeriod = 25 * time.Millisecond

// speedTable is speedKernel's hash table: 1 MiB, open addressing.
var speedTable [1 << 17]uint64

var speedSink uint64

// speedKernel does what the checker spends its time on, without
// allocating: hash-table inserts and lookups over a working set larger
// than a core's private caches, driven by branchy integer code. It
// allocates nothing, so no garbage collection lands inside it.
func speedKernel() {
	clear(speedTable[:])
	const mask = uint64(len(speedTable) - 1)
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 50000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k := x&(1<<16-1) + 1
		for h := (k * 0x9e3779b97f4a7c15) >> 47 & mask; ; h = (h + 1) & mask {
			if speedTable[h] == 0 {
				speedTable[h] = k
				break
			}
			if speedTable[h] == k {
				speedSink++
				break
			}
		}
	}
}

// speedMeter collects speedKernel times over one pass. The service
// clients sample concurrently. A nil *speedMeter samples nothing, which
// is how warm-up runs.
type speedMeter struct {
	mu      sync.Mutex
	samples []time.Duration
	spent   time.Duration // total kernel time, to take out of the pass
}

// sample times one speedKernel.
func (m *speedMeter) sample() {
	if m == nil {
		return
	}
	t0 := time.Now()
	speedKernel()
	d := time.Since(t0)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.samples = append(m.samples, d)
	m.spent += d
}

// spentSoFar is the kernel time sampled so far.
func (m *speedMeter) spentSoFar() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.spent
}

// poller returns a pitchfork Interrupt hook, polled once per explored
// state, that never interrupts but samples every samplePeriod, each
// sample recorded as a span under parent so that layer self times
// exclude it. It returns nil on a nil meter.
func (m *speedMeter) poller(tr *tracer, parent, req int) func() bool {
	if m == nil {
		return nil
	}
	n, last := 0, time.Now()
	return func() bool {
		if n++; n%64 != 0 || time.Since(last) < samplePeriod {
			return false
		}
		sp := tr.start("speed.sample", parent, req)
		m.sample()
		tr.end(sp, "")
		last = time.Now()
		return false
	}
}

// factor is how much faster the machine ran than the reference while
// the samples were taken: raw times multiplied by it read as reference
// times.
func (m *speedMeter) factor() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := append([]time.Duration(nil), m.samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(speedRef) / float64(s[len(s)/2])
}
