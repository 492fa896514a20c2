package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pitchfork/internal/testcases"
	"pitchfork/spectre"
)

// tinySource returns a distinct, trivially analyzable CTL program per
// seed — distinct initial data means a distinct fingerprint.
func tinySource(seed int) string {
	return fmt.Sprintf(`
public x = %d;
public temp;
fn main() {
  temp = x + 1;
}`, seed)
}

func stubReport() *spectre.Report {
	return &spectre.Report{
		Mode:       spectre.ModeConcrete,
		Bound:      spectre.DefaultBound,
		SecretFree: true,
		Findings:   []spectre.Finding{},
		States:     1,
		Paths:      1,
	}
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Drain)
	return s
}

func analyzeBody(t *testing.T, source string) []byte {
	t.Helper()
	raw, err := json.Marshal(AnalyzeRequest{Source: source})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func postAnalyze(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

func decodeAnalyze(t *testing.T, raw []byte) AnalyzeResponse {
	t.Helper()
	var env AnalyzeResponse
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatalf("decode analyze response: %v\nbody: %s", err, raw)
	}
	return env
}

// waitersOf reports how many callers are parked on the flight for key.
func (g *flightGroup) waitersOf(key string) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if f := g.m[key]; f != nil {
		return f.waiters
	}
	return 0
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCoalescing is the ISSUE's coalescing acceptance check, run under
// -race by CI: N concurrent identical submissions must run exactly one
// analysis, and every caller must get the identical report.
func TestCoalescing(t *testing.T) {
	const n = 16
	s := newTestServer(t, Config{Workers: 4, QueueDepth: 64})

	var calls atomic.Int64
	release := make(chan struct{})
	s.runAnalysis = func(ctx context.Context, _ *spectre.Analyzer, _ *spectre.Program) (*spectre.Report, error) {
		calls.Add(1)
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return stubReport(), nil
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
		env    AnalyzeResponse
	}
	results := make(chan result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, raw := postAnalyze(t, ts.URL, body)
			results <- result{resp.StatusCode, decodeAnalyze(t, raw)}
		}()
	}

	// Hold the analysis until every request has joined the flight, so
	// all n are provably concurrent.
	waitFor(t, "all requests to join the flight", func() bool {
		return s.flights.waitersOf(key) == n
	})
	close(release)
	wg.Wait()
	close(results)

	var coalesced, originals int
	var wantReport []byte
	for res := range results {
		if res.status != http.StatusOK {
			t.Fatalf("status %d", res.status)
		}
		if res.env.Report.CacheHit {
			t.Error("in-flight sharing must be reported as coalesced, not cacheHit")
		}
		if res.env.Report.Coalesced {
			coalesced++
		} else {
			originals++
		}
		res.env.Report.Coalesced = false
		norm, _ := json.Marshal(res.env.Report)
		if wantReport == nil {
			wantReport = norm
		} else if !bytes.Equal(norm, wantReport) {
			t.Errorf("coalesced report diverged:\n got %s\nwant %s", norm, wantReport)
		}
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("ran %d analyses for %d identical concurrent submissions, want exactly 1", got, n)
	}
	if originals != 1 || coalesced != n-1 {
		t.Errorf("provenance split %d original / %d coalesced, want 1 / %d", originals, coalesced, n-1)
	}
	if got := s.Stats().Coalesced; got != n-1 {
		t.Errorf("stats count %d coalesced, want %d", got, n-1)
	}

	// A subsequent identical request is a pure cache hit.
	_, raw := postAnalyze(t, ts.URL, body)
	env := decodeAnalyze(t, raw)
	if !env.Report.CacheHit || env.Report.Coalesced {
		t.Errorf("follow-up request: cacheHit=%t coalesced=%t, want pure cache hit",
			env.Report.CacheHit, env.Report.Coalesced)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("cache hit reran the analysis (%d calls)", got)
	}
}

// TestBackpressure: with one worker busy and the one queue slot taken,
// the next submission must be refused with 429 + Retry-After, and the
// queued work must still complete once the worker frees up.
func TestBackpressure(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 1})

	started := make(chan struct{}, 4)
	release := make(chan struct{})
	s.runAnalysis = func(ctx context.Context, _ *spectre.Analyzer, _ *spectre.Program) (*spectre.Report, error) {
		started <- struct{}{}
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return stubReport(), nil
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	statuses := make(chan int, 2)
	post := func(seed int) {
		resp, _ := postAnalyze(t, ts.URL, analyzeBody(t, tinySource(seed)))
		statuses <- resp.StatusCode
	}

	go post(1)
	<-started // the worker is now occupied
	go post(2)
	waitFor(t, "second job to queue", func() bool { return s.Stats().QueueDepth == 1 })

	resp, raw := postAnalyze(t, ts.URL, analyzeBody(t, tinySource(3)))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload status %d, want 429; body %s", resp.StatusCode, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if got := s.Stats().Rejected; got != 1 {
		t.Errorf("stats count %d rejected, want 1", got)
	}

	close(release)
	for i := 0; i < 2; i++ {
		if code := <-statuses; code != http.StatusOK {
			t.Errorf("admitted request finished with %d, want 200", code)
		}
	}
}

// TestCancelPropagation: when the client's connection goes away, the
// context handed to the analysis engine must be cancelled — the
// half-open analysis must not keep burning a worker.
func TestCancelPropagation(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 4})

	started := make(chan struct{})
	cancelled := make(chan struct{})
	s.runAnalysis = func(ctx context.Context, _ *spectre.Analyzer, _ *spectre.Program) (*spectre.Report, error) {
		close(started)
		<-ctx.Done()
		close(cancelled)
		return nil, ctx.Err()
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		ts.URL+"/v1/analyze", bytes.NewReader(analyzeBody(t, tinySource(1))))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
	}()

	<-started
	cancel()
	select {
	case <-cancelled:
	case <-time.After(10 * time.Second):
		t.Fatal("client disconnect did not cancel the analysis context")
	}
	<-done
}

// TestQueuedJobLeavesOnCancel: a queued analysis whose only client
// hangs up must leave the queue at once, not hold its admission until
// a worker slot frees up — otherwise abandoned work turns into
// spurious 429s for the clients still there.
func TestQueuedJobLeavesOnCancel(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 1})

	started := make(chan struct{}, 4)
	release := make(chan struct{})
	releaseOnce := sync.OnceFunc(func() { close(release) })
	s.runAnalysis = func(ctx context.Context, _ *spectre.Analyzer, _ *spectre.Program) (*spectre.Report, error) {
		started <- struct{}{}
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return stubReport(), nil
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	// A failing check must not leave the first job holding its slot,
	// which would block ts.Close until the analysis times out.
	defer releaseOnce()

	first := make(chan int, 1)
	go func() {
		resp, _ := postAnalyze(t, ts.URL, analyzeBody(t, tinySource(1)))
		first <- resp.StatusCode
	}()
	<-started // the one worker slot is now taken

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		ts.URL+"/v1/analyze", bytes.NewReader(analyzeBody(t, tinySource(2))))
	if err != nil {
		t.Fatal(err)
	}
	queued := make(chan struct{})
	go func() {
		defer close(queued)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}()
	waitFor(t, "second job to queue", func() bool { return s.Stats().QueueDepth == 1 })
	cancel()
	<-queued
	waitFor(t, "cancelled job to leave the queue", func() bool { return s.Stats().QueueDepth == 0 })
	if st := s.Stats(); st.InFlight != 1 {
		t.Fatalf("inFlight %d while the first job runs, want 1", st.InFlight)
	}

	third := make(chan int, 1)
	go func() {
		resp, _ := postAnalyze(t, ts.URL, analyzeBody(t, tinySource(3)))
		third <- resp.StatusCode
	}()
	waitFor(t, "third job to queue", func() bool {
		return s.Stats().QueueDepth == 1 || s.Stats().Rejected > 0
	})
	releaseOnce()
	if code := <-first; code != http.StatusOK {
		t.Errorf("first request finished with %d, want 200", code)
	}
	if code := <-third; code != http.StatusOK {
		t.Errorf("third request finished with %d, want 200", code)
	}
	if got := s.Stats().Rejected; got != 0 {
		t.Errorf("stats count %d rejected, want 0", got)
	}
	if st := s.Stats(); st.InFlight != 0 || st.QueueDepth != 0 {
		t.Errorf("after the burst inFlight %d queueDepth %d, want 0 and 0", st.InFlight, st.QueueDepth)
	}
}

// TestIdleServerHoldsNoGoroutines: New starts no goroutine; an
// analysis runs on the goroutine of the flight that needs it.
func TestIdleServerHoldsNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	if _, err := New(Config{Workers: 4, QueueDepth: 4}); err != nil {
		t.Fatal(err)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("New started %d goroutines, want none", after-before)
	}
}

// TestCacheTiers drives the Cache directly: LRU eviction order,
// disk-tier promotion, and the Keys union.
func TestCacheTiers(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(2, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	c.Put("a", []byte("A"), 0)
	c.Put("b", []byte("B"), 0)
	c.Put("c", []byte("C"), 0) // evicts a from memory
	if c.MemLen() != 2 {
		t.Fatalf("mem tier holds %d entries, want 2", c.MemLen())
	}
	if _, tier := c.Get("b"); tier != TierMem {
		t.Errorf("b answered from tier %d, want mem", tier)
	}
	v, tier := c.Get("a")
	if tier != TierDisk || string(v.raw) != "A" {
		t.Errorf("evicted entry came back (%q, tier %d), want (A, disk)", v.raw, tier)
	}
	if _, tier := c.Get("a"); tier != TierMem {
		t.Error("disk hit was not promoted to the memory tier")
	}
	if keys := c.Keys(); len(keys) != 3 {
		t.Errorf("Keys() = %v, want 3 entries", keys)
	}
	if _, tier := c.Get("nope"); tier != TierNone {
		t.Error("phantom hit")
	}

	// A memory-only cache loses evicted entries entirely.
	m, _ := NewCache(1, "", 0)
	m.Put("x", []byte("X"), 0)
	m.Put("y", []byte("Y"), 0)
	if _, tier := m.Get("x"); tier != TierNone {
		t.Error("memory-only cache resurrected an evicted entry")
	}
}

// TestEvictionAndRestart is the persistence acceptance check: entries
// evicted from the memory tier come back from disk, and a fresh Server
// over the same cache directory — a daemon restart — serves persisted
// verdicts without rerunning any analysis.
func TestEvictionAndRestart(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Config{Workers: 2, QueueDepth: 8, MemEntries: 2, CacheDir: dir})
	// Every analysis after the first takes 20 ms, so program 0's verdict
	// is the cheapest entry and the one the full memory tier evicts.
	var calls atomic.Int64
	s.runAnalysis = func(context.Context, *spectre.Analyzer, *spectre.Program) (*spectre.Report, error) {
		if calls.Add(1) > 1 {
			time.Sleep(20 * time.Millisecond)
		}
		return stubReport(), nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	fps := make([]string, 3)
	for i := range fps {
		resp, raw := postAnalyze(t, ts.URL, analyzeBody(t, tinySource(i)))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d: status %d: %s", i, resp.StatusCode, raw)
		}
		fps[i] = decodeAnalyze(t, raw).Fingerprint
	}
	if calls.Load() != 3 {
		t.Fatalf("ran %d analyses, want 3", calls.Load())
	}

	// Program 0 was evicted from memory (capacity 2) — the repeat must
	// be a disk hit, not a rerun.
	_, raw := postAnalyze(t, ts.URL, analyzeBody(t, tinySource(0)))
	if env := decodeAnalyze(t, raw); !env.Report.CacheHit {
		t.Error("evicted verdict was not answered from the disk tier")
	}
	if got := s.Stats().DiskHits; got != 1 {
		t.Errorf("stats count %d disk hits, want 1", got)
	}
	if calls.Load() != 3 {
		t.Errorf("disk hit reran the analysis (%d calls)", calls.Load())
	}

	// Restart: a new server over the same directory must serve all
	// three verdicts — via POST and via the fingerprint index — with
	// zero analyses.
	s2 := newTestServer(t, Config{Workers: 2, QueueDepth: 8, MemEntries: 2, CacheDir: dir})
	s2.runAnalysis = func(context.Context, *spectre.Analyzer, *spectre.Program) (*spectre.Report, error) {
		t.Error("restarted server reran an analysis instead of reading the disk tier")
		return stubReport(), nil
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()

	for i, fp := range fps {
		_, raw := postAnalyze(t, ts2.URL, analyzeBody(t, tinySource(i)))
		if env := decodeAnalyze(t, raw); !env.Report.CacheHit {
			t.Errorf("seed %d: POST after restart missed the persistent tier", i)
		}
		resp, err := http.Get(ts2.URL + "/v1/report/" + fp)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET /v1/report/%s after restart: status %d: %s", fp, resp.StatusCode, body)
		}
	}
	// Report refetches are not verdict requests, so they must not count
	// as hits: the rate is hits over analyze and repair requests.
	if rate := s2.Stats().CacheHitRate; rate < 0 || rate > 1 {
		t.Errorf("cacheHitRate = %.2f after POSTs and report GETs, want within [0, 1]", rate)
	}
	if resp, err := http.Get(ts2.URL + "/v1/report/" + "0000"); err == nil {
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("unknown fingerprint: status %d, want 404", resp.StatusCode)
		}
		resp.Body.Close()
	}
}

// TestBadRequests pins the 400 surface: malformed body, neither/both
// program forms, bad config, bad schema version, unknown global, a
// wire label other than pub or sec. None of them reaches the pool.
func TestBadRequests(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	valid := tinySource(1)
	for name, body := range map[string]string{
		"malformed":       `{"source": `,
		"empty":           `{}`,
		"both forms":      fmt.Sprintf(`{"source": %q, "program": {"version":1}}`, valid),
		"bad source":      `{"source": "fn fn fn"}`,
		"bad mode":        fmt.Sprintf(`{"source": %q, "mode": "fortran"}`, valid),
		"bad config":      fmt.Sprintf(`{"source": %q, "config": {"bound": 0}}`, valid),
		"bad schema":      fmt.Sprintf(`{"source": %q, "schemaVersion": "99"}`, valid),
		"unknown global":  fmt.Sprintf(`{"source": %q, "symbolicGlobals": ["nope"]}`, valid),
		"bad wire":        `{"program": {"version": 99}}`,
		"label above sec": `{"program": {"version":1,"entry":1,"instrs":[{"pc":1,"kind":0,"args":[{"w":5,"l":2}],"next":2}]}}`,
	} {
		resp, raw := postAnalyze(t, ts.URL, []byte(body))
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400; body %s", name, resp.StatusCode, raw)
			continue
		}
		var e ErrorResponse
		if err := json.Unmarshal(raw, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body %s", name, raw)
		}
		if e.Code != spectre.ErrCodeBadRequest {
			t.Errorf("%s: error code %q, want %q", name, e.Code, spectre.ErrCodeBadRequest)
		}
		if n := strings.Count(e.Error, "program wire form"); n > 1 {
			t.Errorf("%s: error %q names the program wire form %d times", name, e.Error, n)
		}
	}
	if st := s.Stats(); st.Analyses != 0 {
		t.Errorf("%d analyses ran for rejected requests, want 0", st.Analyses)
	}
}

// TestSolverSeedIgnoredOnWire: clients written against the seeded
// solver may still send "solverSeed" in the config. The field no
// longer exists, so it is ignored like any unknown field — a 200, the
// same cache key, and a byte-identical symbolic report.
func TestSolverSeedIgnoredOnWire(t *testing.T) {
	src := testcases.Kocher()[0].Source()
	body := func(config string) []byte {
		raw, err := json.Marshal(AnalyzeRequest{
			Source:          src,
			SymbolicGlobals: []string{"x"},
			Config:          json.RawMessage(config),
		})
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	post := func(config string) []byte {
		ts := httptest.NewServer(newTestServer(t, Config{}).Handler())
		defer ts.Close()
		resp, raw := postAnalyze(t, ts.URL, body(config))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("config %s: status %d: %s", config, resp.StatusCode, raw)
		}
		return raw
	}
	plain := post(`{"symbolic":true}`)
	seeded := post(`{"symbolic":true,"solverSeed":7}`)
	if p, s := decodeAnalyze(t, plain), decodeAnalyze(t, seeded); p.CacheKey != s.CacheKey {
		t.Errorf("cache key depends on solverSeed: %s vs %s", p.CacheKey, s.CacheKey)
	}
	if !bytes.Equal(plain, seeded) {
		t.Errorf("solverSeed changed the response:\n plain  %s\n seeded %s", plain, seeded)
	}
}
