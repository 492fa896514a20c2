package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"pitchfork/spectre"
)

// reencodeStamp is the provenance stamp as the service first computed
// it: decode the stored envelope, set the flag, re-encode it with
// json.Encoder. stampProvenance must reproduce its output byte for byte.
func reencodeStamp(t *testing.T, raw []byte, env envelope, prov provenance) []byte {
	t.Helper()
	var v any
	switch env {
	case analyzeEnvelope:
		var e AnalyzeResponse
		if err := json.Unmarshal(raw, &e); err != nil {
			t.Fatal(err)
		}
		e.Report.CacheHit = prov == provCacheHit
		e.Report.Coalesced = prov == provCoalesced
		v = e
	case repairEnvelope:
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

// TestStampMatchesReencode is the differential check on the spliced
// provenance stamp: for every corpus program × {analyze, symbolic
// analyze, repair}, the cache-hit body, the coalesced body and the
// GET /v1/report body must equal what decoding the stored envelope,
// setting the flag and re-encoding it would have produced.
func TestStampMatchesReencode(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2, QueueDepth: 8, MemEntries: 4096})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	type op struct {
		name string
		path string
		env  envelope
		cfg  string
	}
	ops := []op{
		{"analyze", "/v1/analyze", analyzeEnvelope, ""},
		{"symbolic", "/v1/analyze", analyzeEnvelope, `{"symbolic":true}`},
		{"repair", "/v1/repair", repairEnvelope, ""},
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
			if o.env == repairEnvelope {
				key = repairKey(head.Fingerprint, head.CacheKey)
			}
			raw, tier := s.cache.Get(key)
			if tier == TierNone {
				t.Fatalf("%s: verdict was not cached", name)
			}
			// Corpus programs can share a fingerprint, so the first
			// request for a key may already be a hit.
			if !seen[key] && !bytes.Equal(fresh, raw) {
				t.Errorf("%s: fresh body differs from the stored envelope", name)
			}
			seen[key] = true

			hit := reencodeStamp(t, raw, o.env, provCacheHit)
			if _, got := post(t, ts.URL, o.path, body); !bytes.Equal(got, hit) {
				t.Errorf("%s: cache-hit body diverged\n got %s\nwant %s", name, got, hit)
			}
			rec := httptest.NewRecorder()
			s.writeVerdict(rec, raw, o.env, provCoalesced)
			if want := reencodeStamp(t, raw, o.env, provCoalesced); !bytes.Equal(rec.Body.Bytes(), want) {
				t.Errorf("%s: coalesced body diverged\n got %s\nwant %s", name, rec.Body.Bytes(), want)
			}
			if o.env == analyzeEnvelope {
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
// answered with a structured 500, never a malformed 200.
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
		s.cache.Put(tc.key, tc.entry)
		status, raw := post(t, ts.URL, tc.path, body)
		if status != http.StatusInternalServerError {
			t.Errorf("%s: status %d, want 500; body %s", name, status, raw)
			continue
		}
		var e ErrorResponse
		if err := json.Unmarshal(raw, &e); err != nil || e.Code != spectre.ErrCodeInternal {
			t.Errorf("%s: error body %s, want code %q", name, raw, spectre.ErrCodeInternal)
		}
	}
}
