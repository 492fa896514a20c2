package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"pitchfork/internal/testcases"
	"pitchfork/spectre"
)

// maxHitAllocs bounds TestCacheHitAllocs just above the measured 25
// allocations per hit (26 under the race detector), most of them the
// recorder's and the request's. A hit that decodes and fingerprints its
// body allocates about 375.
const maxHitAllocs = 28

// reencodeStamp is the provenance stamp as the service first computed
// it: decode the stored envelope, set the flag, re-encode it with
// json.Encoder. writeVerdict must reproduce its output byte for byte.
func reencodeStamp(t *testing.T, raw []byte, repair bool, prov provenance) []byte {
	t.Helper()
	var v any
	if !repair {
		var e AnalyzeResponse
		if err := json.Unmarshal(raw, &e); err != nil {
			t.Fatal(err)
		}
		e.Report.CacheHit = prov == provCacheHit
		e.Report.Coalesced = prov == provCoalesced
		v = e
	} else {
		var e RepairResponse
		if err := json.Unmarshal(raw, &e); err != nil {
			t.Fatal(err)
		}
		e.CacheHit = prov == provCacheHit
		e.Coalesced = prov == provCoalesced
		v = e
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func post(t *testing.T, url, path string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// memoLen reports how many request bodies the memo holds.
func (s *Server) memoLen() int {
	s.memoMu.Lock()
	defer s.memoMu.Unlock()
	return len(s.memo)
}

// forgetBodies empties the memo, so the next request decodes its body.
func (s *Server) forgetBodies() {
	s.memoMu.Lock()
	defer s.memoMu.Unlock()
	clear(s.memo)
}

// TestStampMatchesReencode is the differential check on the spliced
// provenance stamp: for every corpus program × {analyze, symbolic
// analyze, repair}, the cache-hit body — once through a decoded
// request, once through the request memo — the coalesced body and the
// GET /v1/report body must equal what decoding the stored envelope,
// setting the flag and re-encoding it would have produced.
func TestStampMatchesReencode(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2, QueueDepth: 8, MemEntries: 4096})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	type op struct {
		name   string
		path   string
		repair bool
		cfg    string
	}
	ops := []op{
		{"analyze", "/v1/analyze", false, ""},
		{"symbolic", "/v1/analyze", false, `{"symbolic":true}`},
		{"repair", "/v1/repair", true, ""},
	}
	// specv1_02's repair verification exhausts the default state
	// budget, so the request fails and nothing is cached.
	excluded := map[string]bool{"specv1_02/repair": true}

	seen := make(map[string]bool)
	for _, c := range corpus(t) {
		for _, o := range ops {
			name := c.name + "/" + o.name
			if excluded[name] {
				continue
			}
			var req AnalyzeRequest
			if err := json.Unmarshal(c.body, &req); err != nil {
				t.Fatal(err)
			}
			if o.cfg != "" {
				req.Config = json.RawMessage(o.cfg)
				if req.Source != "" {
					req.SymbolicGlobals = []string{"x"}
				}
			}
			body, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}

			status, fresh := post(t, ts.URL, o.path, body)
			if status != http.StatusOK {
				t.Errorf("%s: fresh status %d: %s", name, status, fresh)
				continue
			}
			var head struct{ Fingerprint, CacheKey string }
			if err := json.Unmarshal(fresh, &head); err != nil {
				t.Fatal(err)
			}
			key := analyzeKey(head.Fingerprint, head.CacheKey)
			if o.repair {
				key = repairKey(head.Fingerprint, head.CacheKey)
			}
			v, tier := s.cache.Get(key)
			if tier == TierNone {
				t.Fatalf("%s: verdict was not cached", name)
			}
			raw := v.raw
			// Corpus programs can share a fingerprint, so the first
			// request for a key may already be a hit.
			if !seen[key] && !bytes.Equal(fresh, raw) {
				t.Errorf("%s: fresh body differs from the stored envelope", name)
			}
			seen[key] = true

			hit := reencodeStamp(t, raw, o.repair, provCacheHit)
			// The first hit decodes its body; the repeat is answered
			// through the memo.
			s.forgetBodies()
			if _, got := post(t, ts.URL, o.path, body); !bytes.Equal(got, hit) {
				t.Errorf("%s: cache-hit body diverged\n got %s\nwant %s", name, got, hit)
			}
			if s.memoLen() != 1 {
				t.Fatalf("%s: memo holds %d bodies after one decoded request, want 1", name, s.memoLen())
			}
			if _, got := post(t, ts.URL, o.path, body); !bytes.Equal(got, hit) {
				t.Errorf("%s: memo-path cache-hit body diverged\n got %s\nwant %s", name, got, hit)
			}
			rec := httptest.NewRecorder()
			s.writeVerdict(rec, v, provCoalesced)
			if want := reencodeStamp(t, raw, o.repair, provCoalesced); !bytes.Equal(rec.Body.Bytes(), want) {
				t.Errorf("%s: coalesced body diverged\n got %s\nwant %s", name, rec.Body.Bytes(), want)
			}
			if !o.repair {
				// The hit above re-indexed the fingerprint to this key.
				resp, err := http.Get(ts.URL + "/v1/report/" + head.Fingerprint)
				if err != nil {
					t.Fatal(err)
				}
				got, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if !bytes.Equal(got, hit) {
					t.Errorf("%s: report body diverged\n got %s\nwant %s", name, got, hit)
				}
			}
		}
	}
	if len(seen) == 0 {
		t.Fatal("no verdicts compared")
	}
	t.Logf("compared %d distinct keys", len(seen))
}

// TestCorruptEntryIsInternalError: a memory-tier entry that is
// truncated, or valid JSON without the anchor the stamp splices at, is
// answered with a structured 500, never a malformed 200; so is a
// correctly framed disk-tier entry whose payload has no anchor or is
// not valid JSON once stamped, when it is promoted.
func TestCorruptEntryIsInternalError(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	prog, err := spectre.CompileCTL(tinySource(1), spectre.ModeC)
	if err != nil {
		t.Fatal(err)
	}
	fp, ck := prog.Fingerprint(), spectre.DefaultConfig().CacheKey()
	analyzeEnv, err := json.Marshal(AnalyzeResponse{Fingerprint: fp, CacheKey: ck, Report: stubReport()})
	if err != nil {
		t.Fatal(err)
	}
	repairEnv, err := json.Marshal(RepairResponse{Fingerprint: fp, CacheKey: ck,
		Result: &spectre.RepairResult{Before: stubReport()}})
	if err != nil {
		t.Fatal(err)
	}
	body := analyzeBody(t, tinySource(1))

	wantInternalError := func(name string, status int, raw []byte) {
		t.Helper()
		if status != http.StatusInternalServerError {
			t.Errorf("%s: status %d, want 500; body %s", name, status, raw)
			return
		}
		var e ErrorResponse
		if err := json.Unmarshal(raw, &e); err != nil || e.Code != spectre.ErrCodeInternal {
			t.Errorf("%s: error body %s, want code %q", name, raw, spectre.ErrCodeInternal)
		}
	}
	for name, tc := range map[string]struct {
		path, key string
		entry     []byte
	}{
		"analyze truncated": {"/v1/analyze", analyzeKey(fp, ck), analyzeEnv[:len(analyzeEnv)/2]},
		"analyze no report": {"/v1/analyze", analyzeKey(fp, ck), []byte(`{"fingerprint":"` + fp + `","report":null}`)},
		"analyze one brace": {"/v1/analyze", analyzeKey(fp, ck), analyzeEnv[:len(analyzeEnv)-1]},
		"repair truncated":  {"/v1/repair", repairKey(fp, ck), repairEnv[:len(repairEnv)-1]},
		"repair no result":  {"/v1/repair", repairKey(fp, ck), []byte(`{"fingerprint":"` + fp + `"}`)},
	} {
		s.cache.Put(tc.key, tc.entry, 0)
		status, raw := post(t, ts.URL, tc.path, body)
		wantInternalError(name, status, raw)
	}

	for name, tc := range map[string]struct {
		path, key string
		payload   []byte
	}{
		"disk analyze no anchor":       {"/v1/analyze", analyzeKey(fp, ck), []byte(`{"fingerprint":"` + fp + `","report":null}`)},
		"disk analyze invalid stamped": {"/v1/analyze", analyzeKey(fp, ck), []byte(`{"fingerprint":"` + fp + `","report":{}}`)},
		"disk repair no anchor":        {"/v1/repair", repairKey(fp, ck), []byte(`{"fingerprint":"` + fp + `"}`)},
		"disk repair invalid stamped":  {"/v1/repair", repairKey(fp, ck), repairEnv[:len(repairEnv)-1]},
	} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, tc.key+".json"), frame(tc.payload), 0o644); err != nil {
			t.Fatal(err)
		}
		ds := newTestServer(t, Config{Workers: 1, QueueDepth: 1, CacheDir: dir})
		rec := httptest.NewRecorder()
		ds.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.path, bytes.NewReader(body)))
		wantInternalError(name, rec.Code, rec.Body.Bytes())
		if st := ds.Stats(); st.DiskHits != 1 || st.Analyses != 0 || st.Quarantined != 0 {
			t.Errorf("%s: diskHits=%d analyses=%d quarantined=%d, want the framed entry promoted and refused (1, 0, 0)",
				name, st.DiskHits, st.Analyses, st.Quarantined)
		}
	}
}

// TestMemoWhitespaceInsensitive: two bodies that differ only in JSON
// whitespace digest differently but resolve to the same key, so both
// get the same verdict.
func TestMemoWhitespaceInsensitive(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := AnalyzeRequest{Source: testcases.Kocher()[0].Source()}
	compact, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	indented, err := json.MarshalIndent(req, " ", "\t")
	if err != nil {
		t.Fatal(err)
	}
	if status, raw := post(t, ts.URL, "/v1/analyze", compact); status != http.StatusOK {
		t.Fatalf("fresh status %d: %s", status, raw)
	}
	_, hitCompact := post(t, ts.URL, "/v1/analyze", compact)
	_, hitIndented := post(t, ts.URL, "/v1/analyze", indented)
	if !bytes.Equal(hitCompact, hitIndented) {
		t.Errorf("whitespace changed the verdict\n compact  %s\n indented %s", hitCompact, hitIndented)
	}
	if !bytes.Contains(hitIndented, []byte(`"cacheHit":true`)) {
		t.Errorf("indented body was not a cache hit: %s", hitIndented)
	}
	if got := s.memoLen(); got != 2 {
		t.Errorf("memo holds %d bodies, want 2", got)
	}
	if got := s.Stats().Analyses; got != 1 {
		t.Errorf("analyses = %d, want 1", got)
	}
}

// TestMemoBounded: the memo never holds more than MemEntries bodies,
// and every body, fresh or memoized, gets its own program's verdict.
func TestMemoBounded(t *testing.T) {
	const entries = 3
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 1, MemEntries: entries})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for i := 0; i < 4*entries; i++ {
		prog, err := spectre.CompileCTL(tinySource(i), spectre.ModeC)
		if err != nil {
			t.Fatal(err)
		}
		body := analyzeBody(t, tinySource(i))
		for range 2 {
			status, raw := post(t, ts.URL, "/v1/analyze", body)
			if status != http.StatusOK {
				t.Fatalf("program %d: status %d: %s", i, status, raw)
			}
			if got := decodeAnalyze(t, raw).Fingerprint; got != prog.Fingerprint() {
				t.Fatalf("program %d: answered with fingerprint %s, want %s", i, got, prog.Fingerprint())
			}
			if got := s.memoLen(); got > entries {
				t.Fatalf("program %d: memo holds %d bodies, cap %d", i, got, entries)
			}
		}
	}
}

// TestMemoEvictedVerdictReanalyzes: a memoized body whose verdict has
// left the cache is decoded again and re-analyzed, and gets the same
// verdict.
func TestMemoEvictedVerdictReanalyzes(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 1, MemEntries: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := analyzeBody(t, tinySource(7))
	status, fresh := post(t, ts.URL, "/v1/analyze", body)
	if status != http.StatusOK {
		t.Fatalf("fresh status %d: %s", status, fresh)
	}
	// The fillers cost more than any analysis of a tiny program, so the
	// verdict is the cheapest entry and the one the full tier evicts.
	s.cache.Put("filler-1", []byte("F"), time.Hour)
	s.cache.Put("filler-2", []byte("F"), time.Hour) // the verdict leaves the 2-entry memory tier
	if s.memoLen() != 1 {
		t.Fatalf("memo holds %d bodies, want the one request", s.memoLen())
	}
	status, again := post(t, ts.URL, "/v1/analyze", body)
	if status != http.StatusOK {
		t.Fatalf("repeat status %d: %s", status, again)
	}
	if !bytes.Equal(again, fresh) {
		t.Errorf("re-analyzed verdict differs\n got %s\nwant %s", again, fresh)
	}
	if st := s.Stats(); st.Analyses != 2 || st.MemHits != 0 {
		t.Errorf("analyses=%d memHits=%d, want 2 analyses and no hit", st.Analyses, st.MemHits)
	}
}

// TestCacheHitAllocs pins the allocations of a warm analyze hit through
// the handler, recorder and request included, so that decoding,
// compiling or fingerprinting cannot creep back into the hit path.
func TestCacheHitAllocs(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	h := s.Handler()
	body := analyzeBody(t, testcases.Kocher()[0].Source())
	send := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(body)))
		return rec
	}
	if rec := send(); rec.Code != http.StatusOK {
		t.Fatalf("fresh status %d: %s", rec.Code, rec.Body.Bytes())
	}
	if rec := send(); !bytes.Contains(rec.Body.Bytes(), []byte(`"cacheHit":true`)) {
		t.Fatalf("repeat was not a cache hit: %s", rec.Body.Bytes())
	}
	allocs := testing.AllocsPerRun(50, func() { send() })
	t.Logf("%.1f allocations per warm hit", allocs)
	if allocs > maxHitAllocs {
		t.Errorf("%.1f allocations per warm hit, want at most %d", allocs, maxHitAllocs)
	}
}

// TestRequestBodyFraming: the body is read whole, under the
// MaxBodyBytes cap, before it is digested. An oversized body is still a
// 400, and bytes after the first JSON value are still ignored — they
// change the digest, not the verdict.
func TestRequestBodyFraming(t *testing.T) {
	body := analyzeBody(t, tinySource(3))
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 1, MaxBodyBytes: int64(len(body) + 16)})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	status, fresh := post(t, ts.URL, "/v1/analyze", body)
	if status != http.StatusOK {
		t.Fatalf("fresh status %d: %s", status, fresh)
	}
	_, hit := post(t, ts.URL, "/v1/analyze", body)
	if status, got := post(t, ts.URL, "/v1/analyze", append(bytes.Clone(body), "\n{trailing"...)); status != http.StatusOK || !bytes.Equal(got, hit) {
		t.Errorf("trailing bytes: status %d, body %s; want 200 and %s", status, got, hit)
	}
	if s.memoLen() != 2 {
		t.Errorf("memo holds %d bodies, want 2", s.memoLen())
	}
	oversized := append(bytes.Clone(body), bytes.Repeat([]byte(" "), 32)...)
	status, raw := post(t, ts.URL, "/v1/analyze", oversized)
	var e ErrorResponse
	if status != http.StatusBadRequest || json.Unmarshal(raw, &e) != nil || e.Code != spectre.ErrCodeBadRequest {
		t.Errorf("oversized body: status %d, body %s; want 400 %q", status, raw, spectre.ErrCodeBadRequest)
	}
	if got := s.Stats().Analyses; got != 1 {
		t.Errorf("analyses = %d, want 1", got)
	}
}

// TestRepairEntryUnderOldPrefixNotServed: repair envelopes written
// under the "repair-" prefix predate cost rows that describe the
// program a give-up hands back, those under "repair2-" may carry a
// statically ranked repair's cost, and those under "repair3-" name the
// full config key, so a disk tier holding one must rerun the repair
// instead of serving it.
func TestRepairEntryUnderOldPrefixNotServed(t *testing.T) {
	prog, err := spectre.CompileCTL(tinySource(1), spectre.ModeC)
	if err != nil {
		t.Fatal(err)
	}
	fp, ck := prog.Fingerprint(), spectre.DefaultConfig().CacheKey()
	stale, err := json.Marshal(RepairResponse{Fingerprint: fp, CacheKey: ck,
		Result: &spectre.RepairResult{Outcome: spectre.RepairClean, Before: stubReport(), After: stubReport()}})
	if err != nil {
		t.Fatal(err)
	}
	for _, prefix := range []string{"repair-", "repair2-", "repair3-"} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, prefix+fp+"-"+ck+".json"), frame(stale), 0o644); err != nil {
			t.Fatal(err)
		}
		s := newTestServer(t, Config{Workers: 1, QueueDepth: 1, CacheDir: dir})
		calls := 0
		s.runRepair = func(context.Context, *spectre.Analyzer, *spectre.Program) (*spectre.RepairResult, error) {
			calls++
			return &spectre.RepairResult{Outcome: spectre.RepairClean, Before: stubReport(), After: stubReport()}, nil
		}
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/repair", bytes.NewReader(analyzeBody(t, tinySource(1)))))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", prefix, rec.Code, rec.Body.Bytes())
		}
		var env RepairResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
			t.Fatal(err)
		}
		if env.CacheHit || calls != 1 || s.Stats().DiskHits != 0 {
			t.Errorf("%s: cacheHit=%v repairs=%d diskHits=%d, want the old entry ignored and the repair rerun",
				prefix, env.CacheHit, calls, s.Stats().DiskHits)
		}
	}
}

// TestRepairKeyIgnoresUnusedFields: a repair ignores StopAtFirst and
// StaticPass, so requests that differ only in them share one repair
// and one cache entry, whose envelope names the repair config key.
func TestRepairKeyIgnoresUnusedFields(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	var repairs atomic.Int64
	s.runRepair = func(ctx context.Context, an *spectre.Analyzer, p *spectre.Program) (*spectre.RepairResult, error) {
		repairs.Add(1)
		return an.Repair(ctx, p)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	source := testcases.Kocher()[0].Source()
	body := func(config string) []byte {
		raw, err := json.Marshal(AnalyzeRequest{Source: source, Config: json.RawMessage(config)})
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	status, fresh := post(t, ts.URL, "/v1/repair", body(`{"staticPass":true}`))
	if status != http.StatusOK {
		t.Fatalf("fresh status %d: %s", status, fresh)
	}
	status, hit := post(t, ts.URL, "/v1/repair", body(`{"stopAtFirst":true}`))
	if status != http.StatusOK {
		t.Fatalf("repeat status %d: %s", status, hit)
	}
	if want := reencodeStamp(t, fresh, true, provCacheHit); !bytes.Equal(hit, want) {
		t.Errorf("stopAtFirst repair differs from the staticPass one\n got %s\nwant %s", hit, want)
	}
	if n := repairs.Load(); n != 1 {
		t.Errorf("ran %d repairs, want 1", n)
	}
	var env RepairResponse
	if err := json.Unmarshal(fresh, &env); err != nil {
		t.Fatal(err)
	}
	if want := spectre.DefaultConfig().CacheKey(); env.CacheKey != want {
		t.Errorf("envelope cacheKey %s, want the default config's %s", env.CacheKey, want)
	}
}
