// Command perfbench is the repository's benchmark: three workloads
// (Table 2, the corpus sweep, and spectred traffic) that time the
// checker end to end and, in a separate traced run, attribute each pass
// to the layers it calls. See README.md for the workloads, the metrics
// and how to run them.
//
//	perfbench --workload table2|corpus|service --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 the per-layer ones.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// setupReps is how many times a run builds its workload to time
// setup_s; the median is reported and the last build is measured.
const setupReps = 51

// setupSamples is how many speed samples are taken on either side of
// the set-ups to scale their times.
const setupSamples = 10

// minMeasuredPasses is the least number of timed passes a run makes,
// however long they take.
const minMeasuredPasses = 2

// workload builds its inputs from a seed. The returned runner executes
// one pass over the workload's fixed request list.
type workload struct {
	name  string
	setup func(seed uint64) (runner, error)
	// batch marks a workload whose user submits the whole list and
	// waits for all of it, so a pass is one request: its latency is the
	// pass's wall time. On the service workload a request is one HTTP
	// request.
	batch bool
	// samplers is how many goroutines of a pass take speed samples side
	// by side; each stalls the pass by its share of the kernel time.
	samplers int
}

type runner interface {
	// warmUp exercises every code path once, untimed and unchecked, so
	// lazy set-up and first-touch costs are paid before timing.
	warmUp() error
	// pass runs the request list once, sampling the machine's speed
	// into sm between its units. tr is nil on untraced passes.
	pass(tr *tracer, sm *speedMeter) (*passResult, error)
	// close releases what setup acquired.
	close()
}

// passResult is what one pass reports. Counts are exact engine counters
// that must repeat from pass to pass on deterministic workloads.
type passResult struct {
	verdicts  int // answers returned (cells, analyses, responses)
	attempted int // requests or engine calls issued
	failed    int // errors, non-200 responses, panics
	wrong     int // decided verdicts that disagree with the oracle
	decided   int // verdicts reached without a budget hit or timeout
	latencies []time.Duration
	counts    map[string]float64
	// deterministic reports whether counts must repeat exactly.
	deterministic bool
	// serve holds the service counters of this pass (service only).
	serve *serveCounters
}

type serveCounters struct {
	hits, misses, coalesced []time.Duration
	analyses, rejected      int64
	coalescedN              int64
}

var workloads = []workload{
	{name: "table2", setup: setupTable2, batch: true, samplers: 1},
	{name: "corpus", setup: setupCorpus, batch: true, samplers: 1},
	{name: "service", setup: setupService, samplers: serviceClients},
}

func main() {
	name := flag.String("workload", "", "table2, corpus or service")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "how long the measured passes run")
	traceFlag := flag.Int("trace", 0, "1 records layer spans and reports per-layer metrics")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload table2|corpus|service --seed N --seconds S --trace 0|1\n")
		os.Exit(2)
	}
	if err := run(w, *seed, time.Duration(*seconds)*time.Second, *traceFlag == 1); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// measured is one timed pass with its process-level resource deltas.
// wall and cpu exclude the speed samples taken inside the pass.
type measured struct {
	*passResult
	wall, cpu time.Duration
	// scale turns this pass's times into reference-machine times: its
	// speed meter's factor over samples samples.
	scale     float64
	samples   int
	peakMemMB float64
	rt        runtimeDelta
	traced    bool
	spans     []span
}

func run(w *workload, seed uint64, budget time.Duration, traced bool) error {
	printEnv(w.name, seed, budget, traced)

	// Set-up: built setupReps times, all but the last torn down again,
	// between setupSamples speed samples on either side.
	speedKernel() // first touch of the kernel's code and memory
	setupMeter := &speedMeter{}
	for range setupSamples {
		setupMeter.sample()
	}
	var r runner
	setups := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		if r != nil {
			r.close()
		}
		t0 := time.Now()
		var err error
		r, err = w.setup(seed)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer r.close()
	for range setupSamples {
		setupMeter.sample()
	}
	setupScale := setupMeter.factor()
	for i := range setups {
		setups[i] *= setupScale
	}

	if err := r.warmUp(); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}

	tr := newTracer()
	var passes []measured
	start := time.Now()
	// A pass starts only if one more of the last pass's length still
	// fits the budget, so the pass count is steady from run to run.
	fits := func() bool {
		last := passes[len(passes)-1].wall
		return time.Since(start)+last <= budget
	}
	for i := 0; len(passes) < minMeasuredPasses || fits(); i++ {
		// The traced run alternates untraced and traced passes so the
		// tracing overhead is measured within one process.
		withTrace := traced && i%2 == 1
		var ptr *tracer
		if withTrace {
			ptr = tr
			tr.beginPass()
		}
		// Every pass starts from a collected heap, with one speed sample
		// on either side of it.
		runtime.GC()
		sm := &speedMeter{}
		sm.sample()
		mem := startMemSampler()
		rt0 := readRuntime()
		spent0 := sm.spentSoFar()
		cpu0 := cpuTime()
		t0 := time.Now()
		p, err := r.pass(ptr, sm)
		wall := time.Since(t0)
		cpu := cpuTime() - cpu0
		inPass := sm.spentSoFar() - spent0
		rt := readRuntime().sub(rt0)
		peakMem := mem.finish()
		if err != nil {
			return fmt.Errorf("pass %d: %w", i+1, err)
		}
		sm.sample()
		wall -= inPass / time.Duration(w.samplers)
		cpu -= inPass
		m := measured{passResult: p, wall: wall, cpu: cpu, scale: sm.factor(), samples: len(sm.samples),
			peakMemMB: peakMem, rt: rt, traced: withTrace}
		if withTrace {
			m.spans = tr.endPass()
		}
		passes = append(passes, m)
	}
	if traced {
		if err := tr.write(w.name, seed); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
		}
	}

	res := summarize(w, setups, passes, traced)
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

func printEnv(name string, seed uint64, budget time.Duration, traced bool) {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%t\n", name, seed, int(budget.Seconds()), traced)
	fmt.Printf("env: go=%s GOMAXPROCS=%d nproc=%d commit=%s source=%s\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), commit, sourceDigest())
}

// summarize checks the passes, prints the human-readable report, and
// builds the result line.
func summarize(w *workload, setups []float64, passes []measured, traced bool) result {
	res := result{Correct: true, Metrics: map[string]metric{}}
	var all []*passResult
	for _, p := range passes {
		all = append(all, p.passResult)
	}
	for _, p := range all {
		res.Attempted += p.attempted
		res.Failed += p.failed
		if p.wrong > 0 || p.failed > 0 {
			res.Correct = false
		}
	}
	if !checkCounts(w.name, all) {
		res.Correct = false
	}

	var untraced, tracedPasses []measured
	for _, p := range passes {
		if p.traced {
			tracedPasses = append(tracedPasses, p)
		} else {
			untraced = append(untraced, p)
		}
	}

	verdicts, wrong, decided := 0, 0, 0
	for _, p := range all {
		verdicts += p.verdicts
		wrong += p.wrong
		decided += p.decided
	}
	// Every time below is a reference-machine time: the raw time scaled
	// by its pass's speed factor (calib.go).
	var perVerdict, perPass []time.Duration
	var wall, rawWall, cpu, vps, mem, scales []float64
	for _, p := range untraced {
		mem = append(mem, p.peakMemMB)
		for _, l := range p.latencies {
			perVerdict = append(perVerdict, scaleDur(l, p.scale))
		}
		perPass = append(perPass, scaleDur(p.wall, p.scale))
		wall = append(wall, p.wall.Seconds()*p.scale)
		rawWall = append(rawWall, p.wall.Seconds())
		cpu = append(cpu, p.cpu.Seconds()*p.scale)
		vps = append(vps, float64(p.verdicts)/(p.wall.Seconds()*p.scale))
		scales = append(scales, p.scale)
	}
	fmt.Printf("setup: %d builds, min %.6f median %.6f max %.6f s (reference time)\n", len(setups), minOf(setups), median(setups), maxOf(setups))
	fmt.Printf("passes: %d untraced, %d traced, after an untimed warm-up; raw wall s × speed factor (samples):", len(untraced), len(tracedPasses))
	for _, p := range passes {
		fmt.Printf(" %.3f×%.3f(%d)", p.wall.Seconds(), p.scale, p.samples)
		if p.traced {
			fmt.Print("[traced]")
		}
	}
	fmt.Println()
	fmt.Printf("pass median: raw %.6f s, speed factor %.4f, reference %.6f s\n", median(rawWall), median(scales), median(wall))
	fmt.Printf("oracle: %d verdicts, %d decided, %d wrong, %d failed of %d attempted\n",
		verdicts, decided, wrong, res.Failed, res.Attempted)
	printLatency("per-verdict latency", perVerdict)
	p50, _ := percentileMS(perVerdict, 0.50)
	p99, _ := percentileMS(perVerdict, 0.99)
	if w.batch {
		// A batch run has a handful of passes, so no percentile of them
		// is sound and the slowest pass would only track machine noise:
		// both latencies report the median pass.
		printLatency("per-pass latency", perPass)
		p50 = median(wall) * 1000
		p99 = p50
		fmt.Printf("latency_p50_ms and latency_p99_ms are the median pass (the whole batch is one request)\n")
	} else {
		fmt.Printf("latency_p50_ms and latency_p99_ms are per request\n")
	}

	if !traced {
		add := func(k string, v float64, unit string) { res.Metrics[k] = metric{v, unit} }
		add("setup_s", median(setups), "s")
		add("pass_s", median(wall), "s")
		add("verdicts_per_s", median(vps), "1/s")
		add("cpu_s", median(cpu), "s")
		add("latency_p50_ms", p50, "ms")
		add("latency_p99_ms", p99, "ms")
		add("decided_ratio", ratio(decided, verdicts), "ratio")
		add("correct_ratio", ratio(decided-wrong, decided), "ratio")
		add("peak_mem_mb", median(mem), "MB")
		fmt.Printf("max RSS over the process's life: %.3f MB (for information; not a metric)\n", maxRSSMB())
		fmt.Printf("failed_ratio: %.4f (%d of %d attempted; carried as \"failed\")\n",
			ratio(res.Failed, res.Attempted), res.Failed, res.Attempted)
	} else {
		res.Metrics = layerMetrics(tracedPasses, untraced)
	}
	printMetrics(res.Metrics)
	return res
}

// printLatency prints the median and 99th percentile of ds with the
// sample count, marking a percentile with fewer than 10 samples beyond
// it as unsound.
func printLatency(what string, ds []time.Duration) {
	p50, n50 := percentileMS(ds, 0.50)
	p99, n99 := percentileMS(ds, 0.99)
	fmt.Printf("%s: n=%d  p50 %.4f ms (%d beyond)%s  p99 %.4f ms (%d beyond)%s\n",
		what, len(ds), p50, n50, withheld(n50), p99, n99, withheld(n99))
}

func withheld(beyond int) string {
	if beyond < 10 {
		return " [fewer than 10 samples beyond: not a sound percentile]"
	}
	return ""
}

func printMetrics(ms map[string]metric) {
	keys := make([]string, 0, len(ms))
	for k := range ms {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-24s %14.6f %s\n", k, ms[k].Value, ms[k].Unit)
	}
}

// checkCounts verifies that the exact engine counters repeat on every
// pass of a deterministic workload, and prints the spread of the
// service counters otherwise. It reports false on a mismatch.
func checkCounts(name string, all []*passResult) bool {
	if len(all) == 0 || !all[0].deterministic {
		var an, co []float64
		for _, p := range all {
			if p.serve != nil {
				an = append(an, float64(p.serve.analyses))
				co = append(co, float64(p.serve.coalescedN))
			}
		}
		if len(an) > 0 {
			fmt.Printf("counts: %s depends on timing; serve.analyses per pass min %.0f median %.0f max %.0f, serve.coalesced min %.0f median %.0f max %.0f\n",
				name, minOf(an), median(an), maxOf(an), minOf(co), median(co), maxOf(co))
		}
		return true
	}
	ref := all[0].counts
	ok := true
	for i, p := range all[1:] {
		for k, v := range ref {
			if p.counts[k] != v {
				fmt.Fprintf(os.Stderr, "perfbench: COUNT MISMATCH on %s pass %d: %s = %v, first pass %v\n", name, i+1, k, p.counts[k], v)
				fmt.Printf("COUNT MISMATCH: %s = %v on pass %d, %v on the first pass\n", k, p.counts[k], i+1, v)
				ok = false
			}
		}
	}
	keys := make([]string, 0, len(ref))
	for k := range ref {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%v", k, ref[k])
	}
	state := "repeat exactly on all"
	if !ok {
		state = "DO NOT REPEAT across"
	}
	fmt.Printf("counts: %s %d passes:%s\n", state, len(all), b.String())
	return ok
}

func scaleDur(d time.Duration, f float64) time.Duration {
	return time.Duration(float64(d) * f)
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
