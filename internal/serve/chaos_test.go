package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"pitchfork/spectre"
)

// ---------------------------------------------------------------------
// Fault registry
// ---------------------------------------------------------------------

func TestFaultSpecParsing(t *testing.T) {
	if f, err := parseFaults(""); f != nil || err != nil {
		t.Errorf("empty spec = (%v, %v), want (nil, nil)", f, err)
	}
	f, err := parseFaults("seed=7,engine=0.25,diskread=1,pooladmit=0.0")
	if err != nil {
		t.Fatal(err)
	}
	if f.seed != 7 {
		t.Errorf("seed = %d, want 7", f.seed)
	}
	if got := f.sites[siteEngine].rate; got != 0.25 {
		t.Errorf("engine rate = %v, want 0.25", got)
	}
	if f.fire(sitePoolAdmit) {
		t.Error("rate-0 site fired")
	}
	if f.fire(siteDiskWrite) {
		t.Error("unconfigured site fired")
	}
	if !f.fire(siteDiskRead) {
		t.Error("rate-1 site did not fire")
	}
	for _, bad := range []string{"engine", "engine=2", "engine=-0.1", "engine=x", "bogus=0.5", "seed=abc", "seed=-1"} {
		if _, err := parseFaults(bad); err == nil {
			t.Errorf("spec %q parsed without error", bad)
		}
	}
	// nil plan: every hook is a silent no-op.
	var none *faults
	if none.fire(siteEngine) || none.injectedCount() != 0 {
		t.Error("nil plan fired")
	}
	none.disable() // must not panic
}

// TestFaultDeterminism: the whole point of the seedable registry —
// identical specs replay identical fault patterns, different seeds
// diverge.
func TestFaultDeterminism(t *testing.T) {
	sequence := func(spec string) []bool {
		t.Helper()
		f, err := parseFaults(spec)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]bool, 1000)
		for i := range out {
			out[i] = f.fire(siteEngine)
		}
		return out
	}
	a := sequence("seed=1,engine=0.3")
	b := sequence("seed=1,engine=0.3")
	c := sequence("seed=2,engine=0.3")
	fires := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at call %d", i)
		}
		if a[i] {
			fires++
		}
	}
	if fires == 0 || fires == len(a) {
		t.Errorf("rate 0.3 fired %d/%d times", fires, len(a))
	}
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical fault patterns")
	}
}

// ---------------------------------------------------------------------
// Panic isolation
// ---------------------------------------------------------------------

// TestPanicIsolation is the tentpole's isolation contract: a panicking
// analysis yields a structured 500 with the stable engine_panic code to
// every coalesced waiter, the poisoned flight unmaps so identical
// retries run fresh, and the daemon — workers included — survives.
func TestPanicIsolation(t *testing.T) {
	const n = 8
	s := newTestServer(t, Config{Workers: 2, QueueDepth: 16})

	release := make(chan struct{})
	first := make(chan struct{}, 1)
	s.runAnalysis = func(ctx context.Context, _ *spectre.Analyzer, _ *spectre.Program) (*spectre.Report, error) {
		select {
		case first <- struct{}{}:
			<-release
			panic("kaboom: synthetic engine bug")
		default:
			return stubReport(), nil
		}
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := analyzeBody(t, tinySource(1))
	prog, err := spectre.CompileCTL(tinySource(1), spectre.ModeC)
	if err != nil {
		t.Fatal(err)
	}
	key := analyzeKey(prog.Fingerprint(), spectre.DefaultConfig().CacheKey())

	type result struct {
		status int
		body   []byte
	}
	results := make(chan result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, raw := postAnalyze(t, ts.URL, body)
			results <- result{resp.StatusCode, raw}
		}()
	}
	// Hold the panic until every request is provably waiting on the one
	// flight, so the failure must fan out to all of them.
	waitFor(t, "all requests to join the flight", func() bool {
		return s.flights.waitersOf(key) == n
	})
	close(release)
	wg.Wait()
	close(results)

	for res := range results {
		if res.status != http.StatusInternalServerError {
			t.Fatalf("waiter got status %d, want 500; body %s", res.status, res.body)
		}
		var e ErrorResponse
		if err := json.Unmarshal(res.body, &e); err != nil {
			t.Fatalf("error body %s: %v", res.body, err)
		}
		if e.Code != spectre.ErrCodeEnginePanic {
			t.Errorf("error code %q, want %q", e.Code, spectre.ErrCodeEnginePanic)
		}
		if !strings.Contains(e.Error, "panicked") {
			t.Errorf("error message %q does not mention the panic", e.Error)
		}
	}
	if got := s.Stats().Panics; got != 1 {
		t.Errorf("panics counter = %d, want 1 (one analysis, n waiters)", got)
	}

	// The poisoned flight must be unmapped: an identical retry starts a
	// fresh analysis and succeeds.
	resp, raw := postAnalyze(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retry after panic: status %d, body %s — poisoned flight wedged the key", resp.StatusCode, raw)
	}
	env := decodeAnalyze(t, raw)
	if env.Report.CacheHit || env.Report.Coalesced {
		t.Error("retry after panic was served a cached/coalesced failure")
	}

	// Both workers survived: two concurrent fresh analyses complete.
	var wg2 sync.WaitGroup
	for i := 2; i < 4; i++ {
		wg2.Add(1)
		go func() {
			defer wg2.Done()
			if resp, _ := postAnalyze(t, ts.URL, analyzeBody(t, tinySource(i))); resp.StatusCode != http.StatusOK {
				t.Errorf("post-panic request: status %d", resp.StatusCode)
			}
		}()
	}
	wg2.Wait()
}

// ---------------------------------------------------------------------
// Chaos replay
// ---------------------------------------------------------------------

// chaosPost retries one submission until it succeeds or the budget is
// exhausted — the in-process analogue of specload -retry.
func chaosPost(t *testing.T, url string, body []byte) ([]byte, error) {
	t.Helper()
	var last string
	for attempt := 0; attempt < 25; attempt++ {
		resp, raw := postAnalyze(t, url, body)
		if resp.StatusCode == http.StatusOK {
			return raw, nil
		}
		if resp.StatusCode != http.StatusTooManyRequests && resp.StatusCode < 500 {
			return nil, fmt.Errorf("non-retryable status %d: %s", resp.StatusCode, raw)
		}
		last = fmt.Sprintf("status %d: %s", resp.StatusCode, raw)
		time.Sleep(2 * time.Millisecond)
	}
	return nil, fmt.Errorf("retry budget exhausted; last: %s", last)
}

// TestChaosReplayConvergence is the chaos acceptance gate, in-process:
// replay the full corpus against a server with faults injected at all
// five sites — panics, disk I/O errors, lost cache lookups, refused
// admissions — plus real on-disk corruption introduced mid-run. The
// daemon must never crash, never serve a verdict that differs from the
// library path, keep the disk tier under budget, and converge to a
// clean, healthy service once the storm stops.
func TestChaosReplayConvergence(t *testing.T) {
	cases := corpus(t)

	an, err := spectre.New()
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string][]byte, len(cases))
	for _, c := range cases {
		rep, err := an.Run(context.Background(), c.prog)
		if err != nil {
			t.Fatalf("%s: library run: %v", c.name, err)
		}
		raw, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		want[c.name] = raw
	}

	flt, err := parseFaults("seed=11,engine=0.08,diskread=0.12,diskwrite=0.12,cachelookup=0.15,pooladmit=0.06")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	const budget = int64(48 << 10)
	s := newTestServer(t, Config{Workers: 4, QueueDepth: 64, MemEntries: 8, CacheDir: dir, DiskBytes: budget})
	s.setFaults(flt)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	replay := func(pass string, retry bool) {
		sem := make(chan struct{}, 8)
		var wg sync.WaitGroup
		for _, c := range cases {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				var raw []byte
				var err error
				if retry {
					raw, err = chaosPost(t, ts.URL, c.body)
				} else {
					resp, body := postAnalyze(t, ts.URL, c.body)
					if resp.StatusCode != http.StatusOK {
						err = fmt.Errorf("status %d: %s", resp.StatusCode, body)
					}
					raw = body
				}
				if err != nil {
					t.Errorf("%s pass %s: %v", pass, c.name, err)
					return
				}
				env := decodeAnalyze(t, raw)
				if got := normalizeReport(t, env.Report); !bytes.Equal(got, want[c.name]) {
					t.Errorf("%s pass %s: WRONG VERDICT under chaos\n got %s\nwant %s", pass, c.name, got, want[c.name])
				}
			}()
		}
		wg.Wait()
	}

	replay("storm-1", true)

	// Mid-storm, corrupt real cache files on disk: truncate some,
	// bit-flip others. Later passes must quarantine-or-miss, never
	// serve them.
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	mangled := 0
	for _, n := range names {
		if !strings.HasSuffix(n.Name(), ".json") || mangled >= 6 {
			continue
		}
		path := filepath.Join(dir, n.Name())
		data, err := os.ReadFile(path)
		if err != nil || len(data) < 8 {
			continue
		}
		if mangled%2 == 0 {
			data = data[:len(data)/2] // truncate
		} else {
			data[len(data)-1] ^= 0xFF // bit rot
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		mangled++
	}
	if mangled == 0 {
		t.Fatal("chaos run persisted nothing to corrupt — the storm missed the disk tier")
	}

	replay("storm-2", true)
	replay("storm-3", true)

	if got := s.Stats().InjectedFaults; got == 0 {
		t.Error("chaos run injected zero faults — the storm was a no-op")
	}

	// Storm over: the service must converge to clean first-attempt
	// service. (The disk tier may or may not have degraded under the
	// storm; either way requests succeed.)
	flt.disable()
	replay("converged", false)

	stats := s.Stats()
	if stats.DiskBytes > budget {
		t.Errorf("disk tier ended at %d bytes, over the %d budget", stats.DiskBytes, budget)
	}
	if got := diskUsage(t, dir); got > budget {
		t.Errorf("actual disk usage %d exceeds budget %d", got, budget)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("post-storm /healthz = %d, want 200", resp.StatusCode)
	}
}

// ---------------------------------------------------------------------
// Drain / goroutine leaks
// ---------------------------------------------------------------------

// TestDrainGoroutineLeak is the satellite audit of the SIGTERM drain
// path: after serving a concurrent burst — including clients that hang
// up mid-flight and requests refused at admission — Shutdown-then-Drain
// must return the process to its pre-server goroutine count. Flight
// runners and in-flight disk writes all have owners that the drain
// waits for; this pins that no one regresses into a fire-and-forget
// goroutine.
func TestDrainGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()

	s, err := New(Config{Workers: 4, QueueDepth: 16, MemEntries: 4, CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	s.runAnalysis = func(ctx context.Context, _ *spectre.Analyzer, _ *spectre.Program) (*spectre.Report, error) {
		select {
		case <-time.After(2 * time.Millisecond):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return stubReport(), nil
	}
	ts := httptest.NewServer(s.Handler())

	var wg sync.WaitGroup
	for i := 0; i < 48; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i%5 == 0 {
				// An impatient client: joins a flight, hangs up mid-wait.
				ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
				defer cancel()
				req, err := http.NewRequestWithContext(ctx, http.MethodPost,
					ts.URL+"/v1/analyze", bytes.NewReader(analyzeBody(t, tinySource(i%12))))
				if err != nil {
					t.Error(err)
					return
				}
				if resp, err := http.DefaultClient.Do(req); err == nil {
					resp.Body.Close()
				}
				return
			}
			resp, _ := postAnalyze(t, ts.URL, analyzeBody(t, tinySource(i%12)))
			if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
				t.Errorf("request %d: status %d", i, resp.StatusCode)
			}
		}()
	}
	wg.Wait()

	// The SIGTERM sequence: stop connections, then drain the service.
	ts.Close()
	http.DefaultClient.CloseIdleConnections()
	s.Drain()

	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		after := runtime.NumGoroutine()
		if after <= before+2 { // tolerate runtime/test-harness jitter
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked across drain: %d before, %d after\n%s", before, after, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Drained means drained: new work is refused, not queued.
	run := func(context.Context) (verdict, error) { return verdict{}, nil }
	if _, err := s.runJob(context.Background(), run); !errors.Is(err, errQueueFull) {
		t.Errorf("drained server admitted new work: err %v, want errQueueFull", err)
	}
}
