package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pitchfork/spectre"
)

// Config sizes the service. Zero values pick the documented defaults.
type Config struct {
	// Workers is the number of worker slots: how many analyses may
	// execute at once (default runtime.NumCPU()).
	Workers int
	// QueueDepth bounds how many admitted analyses may wait for a
	// worker slot; past Workers+QueueDepth admitted analyses, a miss
	// turns into HTTP 429 (default 64).
	QueueDepth int
	// MemEntries caps the in-memory cache tier (default 1024).
	MemEntries int
	// CacheDir enables the persistent cache tier; empty disables it.
	CacheDir string
	// Timeout is the per-request analysis budget, measured from the
	// moment the analysis takes a worker slot (default 60s; <0
	// disables).
	Timeout time.Duration
	// MaxBodyBytes caps request bodies (default 8 MiB).
	MaxBodyBytes int64
	// DiskBytes bounds the persistent cache tier's total bytes; above
	// it, least-recently-used entries are evicted. 0 means unbounded.
	DiskBytes int64
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MemEntries <= 0 {
		c.MemEntries = 1024
	}
	if c.Timeout == 0 {
		c.Timeout = 60 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	return c
}

// AnalyzeRequest is the body of POST /v1/analyze and POST /v1/repair.
// Exactly one of Source (CTL text, compiled with Mode) or Program (the
// builder wire form, spectre.Program's JSON encoding) must be set.
// Config, when present, is a partial spectre.Config document overlaid
// on DefaultConfig. SchemaVersion, when present, must name a schema
// revision the server speaks.
type AnalyzeRequest struct {
	SchemaVersion   string          `json:"schemaVersion,omitempty"`
	Source          string          `json:"source,omitempty"`
	Mode            string          `json:"mode,omitempty"`
	SymbolicGlobals []string        `json:"symbolicGlobals,omitempty"`
	Program         json.RawMessage `json:"program,omitempty"`
	Config          json.RawMessage `json:"config,omitempty"`
}

// AnalyzeResponse is the body of a successful POST /v1/analyze and of
// GET /v1/report/{fingerprint}. The cached form stores the report with
// provenance unset; CacheHit/Coalesced are stamped per response by
// splicing them into the stored bytes, which depends on field order:
// Report must stay the last field (see provenanceAnchor).
type AnalyzeResponse struct {
	Fingerprint string          `json:"fingerprint"`
	CacheKey    string          `json:"cacheKey"`
	Report      *spectre.Report `json:"report"`
}

// RepairResponse is the body of a successful POST /v1/repair.
// Provenance lives on the envelope: a repair verdict is one result,
// not two reports, so CacheHit/Coalesced qualify the whole response.
// They are spliced into the stored bytes ahead of Result, which depends
// on field order: CacheHit, Coalesced must sit directly between the
// fixed-width hex CacheKey and Result (see provenanceAnchor).
type RepairResponse struct {
	Fingerprint string                `json:"fingerprint"`
	CacheKey    string                `json:"cacheKey"`
	CacheHit    bool                  `json:"cacheHit,omitempty"`
	Coalesced   bool                  `json:"coalesced,omitempty"`
	Result      *spectre.RepairResult `json:"result"`
	// RepairedProgram is the repaired program in builder wire form when
	// the repair rewrote the program; absent otherwise.
	RepairedProgram *spectre.Program `json:"repairedProgram,omitempty"`
}

// ErrorResponse is the body of every non-2xx response. Code is one of
// the stable spectre.ErrCode* identifiers — the machine-readable half
// clients dispatch on; Error is the human-readable message, free to be
// reworded.
type ErrorResponse struct {
	Code  string `json:"code,omitempty"`
	Error string `json:"error"`
}

// HealthResponse is the body of GET /healthz. The endpoint always
// answers 200 while the daemon can serve at all: "degraded" means a
// subsystem (today: the persistent cache tier) has been disabled after
// repeated failures but requests still succeed — a liveness probe must
// not kill a daemon that is down one cache tier.
type HealthResponse struct {
	Status string `json:"status"` // "ok" or "degraded"
	// DiskTier is "disabled" when repeated persistent-tier failures
	// have degraded the daemon to memory-only caching.
	DiskTier string `json:"diskTier,omitempty"`
}

// StatsResponse is the body of GET /statsz. EngineSeconds is the wall
// time of every computed verdict, engine and envelope encoding, summed:
// the costs the memory tier weighs its entries by. MemEvictions counts
// the verdicts that tier evicted to make room.
type StatsResponse struct {
	UptimeSeconds   float64 `json:"uptimeSeconds"`
	Requests        int64   `json:"requests"`
	AnalyzeRequests int64   `json:"analyzeRequests"`
	RepairRequests  int64   `json:"repairRequests"`
	MemHits         int64   `json:"memHits"`
	DiskHits        int64   `json:"diskHits"`
	Coalesced       int64   `json:"coalesced"`
	Analyses        int64   `json:"analyses"`
	EngineSeconds   float64 `json:"engineSeconds"`
	Rejected        int64   `json:"rejected"`
	Errors          int64   `json:"errors"`
	CacheHitRate    float64 `json:"cacheHitRate"`
	InFlight        int64   `json:"inFlight"`
	QueueDepth      int     `json:"queueDepth"`
	QueueCapacity   int     `json:"queueCapacity"`
	Workers         int     `json:"workers"`
	MemEntries      int     `json:"memEntries"`
	MemEvictions    int64   `json:"memEvictions"`
	DiskErrors      int64   `json:"diskErrors"`
	// Fault-tolerance counters: recovered analysis panics, corrupt
	// disk entries quarantined, byte-budget GC evictions, the current
	// persistent-tier footprint, whether that tier has been disabled
	// after repeated failures, and (under chaos testing only) how many
	// faults the injection registry has fired.
	Panics         int64 `json:"panics"`
	Quarantined    int64 `json:"quarantined"`
	GCEvictions    int64 `json:"gcEvictions"`
	DiskBytes      int64 `json:"diskBytes"`
	DiskDegraded   bool  `json:"diskDegraded,omitempty"`
	InjectedFaults int64 `json:"injectedFaults,omitempty"`
}

// errQueueFull is the admission failure runJob surfaces; the HTTP
// layer renders it as 429 + Retry-After.
var errQueueFull = errors.New("serve: analysis queue full")

// Server is the analysis service: five HTTP endpoints over the
// two-tier verdict cache and the coalescing flight group, whose
// runners take one of a fixed number of worker slots to analyze.
type Server struct {
	cfg     Config
	cache   *Cache
	flights flightGroup
	mux     *http.ServeMux
	started time.Time

	// slots holds one token per executing analysis; its capacity is
	// cfg.Workers. admitted counts the analyses that hold a slot or
	// wait for one, at most Workers+QueueDepth, and closed refuses
	// every admission once Drain has begun; admitMu guards both.
	slots    chan struct{}
	admitMu  sync.Mutex
	admitted int
	closed   bool

	// byFP maps a program fingerprint to the most recently stored
	// analyze cache key for it — the index behind GET /v1/report.
	fpMu sync.Mutex
	byFP map[string]string

	// memo maps the sha256 of a request body to the fingerprint and
	// config key the body resolves to, so a repeated body goes straight
	// to the cache without being decoded, compiled or fingerprinted.
	// Both halves are a pure function of the body bytes and the
	// server's fixed configuration, so an entry never goes stale, and
	// the analyze and repair endpoints share it. The map holds at most
	// cfg.MemEntries entries and is cleared when full.
	memoMu sync.Mutex
	memo   map[[sha256.Size]byte]memoEntry

	requests    atomic.Int64
	analyzeReqs atomic.Int64
	repairReqs  atomic.Int64
	memHits     atomic.Int64
	diskHits    atomic.Int64
	coalesced   atomic.Int64
	analyses    atomic.Int64
	engineNanos atomic.Int64
	rejected    atomic.Int64
	errCount    atomic.Int64
	panics      atomic.Int64

	// flt is the installed fault-injection plan; nil in production.
	flt *faults

	// runAnalysis and runRepair are the engine entry points. They exist
	// as fields so service tests can substitute instrumented or blocking
	// engines; production always uses the spectre methods.
	runAnalysis func(ctx context.Context, an *spectre.Analyzer, p *spectre.Program) (*spectre.Report, error)
	runRepair   func(ctx context.Context, an *spectre.Analyzer, p *spectre.Program) (*spectre.RepairResult, error)
}

// New builds a Server, creating the cache directory if configured and
// rebuilding the fingerprint index from any persisted entries so
// GET /v1/report works across restarts.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	// Fault injection is opt-in through the environment only (chaos
	// testing); an unset variable yields a nil plan and zero overhead.
	flt, err := faultsFromEnv()
	if err != nil {
		return nil, err
	}
	cache, err := NewCache(cfg.MemEntries, cfg.CacheDir, cfg.DiskBytes)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		cache:   cache,
		slots:   make(chan struct{}, cfg.Workers),
		started: time.Now(),
		byFP:    make(map[string]string),
		memo:    make(map[[sha256.Size]byte]memoEntry),
		runAnalysis: func(ctx context.Context, an *spectre.Analyzer, p *spectre.Program) (*spectre.Report, error) {
			return an.Run(ctx, p)
		},
		runRepair: func(ctx context.Context, an *spectre.Analyzer, p *spectre.Program) (*spectre.RepairResult, error) {
			return an.Repair(ctx, p)
		},
	}
	s.setFaults(flt)
	for _, key := range cache.Keys() {
		if fp, ok := analyzeKeyFingerprint(key); ok {
			s.byFP[fp] = key
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/analyze", s.handleAnalyze)
	mux.HandleFunc("POST /v1/repair", s.handleRepair)
	mux.HandleFunc("GET /v1/report/{fingerprint}", s.handleReport)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /statsz", s.handleStatsz)
	s.mux = mux
	return s, nil
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// setFaults installs a fault plan on the server and its cache. Only
// called before the server takes traffic (from New, or from a test
// before it starts posting).
func (s *Server) setFaults(f *faults) {
	s.flt = f
	s.cache.flt = f
}

// Drain stops admitting work and waits for every flight runner to
// exit, which is every queued and running analysis finishing. Call it
// after http.Server.Shutdown has stopped new connections; subsequent
// submissions are rejected with 429. After Drain returns, the server
// holds no goroutines: flight runners have completed (their analyses
// either ran during the drain or were refused admission and returned
// immediately), and disk writes — which happen synchronously inside
// analyses — have all landed.
func (s *Server) Drain() {
	s.admitMu.Lock()
	s.closed = true
	s.admitMu.Unlock()
	s.flights.wait()
}

// analyzeKey and repairKey build the cache/flight keys. Both halves
// are fixed-width lowercase hex (stability-pinned in the spectre
// package), so the key is filename-safe and doubles as the disk-tier
// file name. The prefix names the stored envelope: an AnalyzeResponse
// or a RepairResponse. Repair envelopes stored under the earlier
// "repair-" prefix may describe a discarded rewrite in a give-up's
// cost row, those under "repair2-" may carry the cost and iteration
// count of a statically ranked repair, and those under "repair3-"
// name the full config key rather than the repair config key (see
// repairConfigKey), so a disk tier reads none of them.
const (
	analyzePrefix = "analyze-"
	repairPrefix  = "repair4-"
)

// repairConfigKey is the config key a repair is cached under: the
// CacheKey of c with the fields spectre's Repair ignores cleared
// (StopAtFirst and StaticPass), so requests that differ only in those
// share one repair and one entry.
func repairConfigKey(c spectre.Config) string {
	c.StopAtFirst, c.StaticPass = false, false
	return c.CacheKey()
}

func analyzeKey(fp, ck string) string { return analyzePrefix + fp + "-" + ck }
func repairKey(fp, ck string) string  { return repairPrefix + fp + "-" + ck }

func analyzeKeyFingerprint(key string) (string, bool) {
	rest, ok := strings.CutPrefix(key, analyzePrefix)
	if !ok {
		return "", false
	}
	fp, _, ok := strings.Cut(rest, "-")
	return fp, ok
}

// ---------------------------------------------------------------------
// Request decoding
// ---------------------------------------------------------------------

// The exploration budgets one request may ask for. The library accepts
// any non-negative budget; the daemon refuses more than these, so one
// request cannot exhaust memory before its timeout fires. Each sits
// well above DefaultConfig and the paper's settings (bound 250 without
// forwarding hazards, 20 with them).
const (
	maxRequestBound   = 1_000
	maxRequestStates  = 2_000_000
	maxRequestRetired = 200_000
)

type badRequestError struct{ msg string }

func (e *badRequestError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &badRequestError{msg: fmt.Sprintf(format, args...)}
}

// memoEntry is what a request body resolves to: the program
// fingerprint, the config cache key of an analysis and that of a
// repair (see repairConfigKey).
type memoEntry struct{ fp, ck, repairCK string }

// verdictRequest is one analyze or repair request: its body, the
// body's digest, and the fingerprint and config keys it resolves to.
// prog and an are nil while the request is answered from the memo;
// decode fills them in.
type verdictRequest struct {
	memoEntry
	body []byte
	sum  [sha256.Size]byte
	prog *spectre.Program
	an   *spectre.Analyzer
}

// readRequest reads the body, capped at cfg.MaxBodyBytes, and resolves
// it to its fingerprint and config key: from the memo when the same
// body was decoded before, by decoding it otherwise.
func (s *Server) readRequest(r *http.Request) (*verdictRequest, error) {
	body, err := io.ReadAll(http.MaxBytesReader(nil, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		return nil, badRequest("invalid request body: %v", err)
	}
	req := &verdictRequest{body: body, sum: sha256.Sum256(body)}
	s.memoMu.Lock()
	m, ok := s.memo[req.sum]
	s.memoMu.Unlock()
	if ok {
		req.memoEntry = m
		return req, nil
	}
	return req, s.decode(req)
}

// decode compiles the request's program and builds its analyzer, then
// memoizes what its body resolves to.
func (s *Server) decode(req *verdictRequest) error {
	prog, an, err := s.decodeRequest(req.body)
	if err != nil {
		return err
	}
	req.prog, req.an = prog, an
	cfg := an.Config()
	req.memoEntry = memoEntry{fp: prog.Fingerprint(), ck: cfg.CacheKey(), repairCK: repairConfigKey(cfg)}
	s.memoMu.Lock()
	if len(s.memo) >= s.cfg.MemEntries {
		clear(s.memo)
	}
	s.memo[req.sum] = req.memoEntry
	s.memoMu.Unlock()
	return nil
}

// decodeRequest parses a request body and resolves it into a program
// and an analyzer. Bytes after the first JSON value are ignored. All
// failures are the client's: malformed JSON, an unknown schema
// version, a program that doesn't validate, a config that doesn't, or
// one whose budgets exceed the request caps.
func (s *Server) decodeRequest(body []byte) (*spectre.Program, *spectre.Analyzer, error) {
	var req AnalyzeRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		return nil, nil, badRequest("invalid request body: %v", err)
	}
	if req.SchemaVersion != "" && req.SchemaVersion != spectre.ReportSchemaVersion {
		return nil, nil, badRequest("unsupported schema version %q (this server speaks %q)",
			req.SchemaVersion, spectre.ReportSchemaVersion)
	}

	var prog *spectre.Program
	switch {
	case req.Source != "" && len(req.Program) > 0:
		return nil, nil, badRequest("request sets both source and program; send exactly one")
	case req.Source != "":
		mode := spectre.ModeC
		if req.Mode != "" {
			var err error
			if mode, err = spectre.ParseSourceMode(req.Mode); err != nil {
				return nil, nil, badRequest("%v", err)
			}
		}
		p, err := spectre.CompileCTL(req.Source, mode)
		if err != nil {
			return nil, nil, badRequest("compile: %v", err)
		}
		prog = p
	case len(req.Program) > 0:
		var p spectre.Program
		if err := json.Unmarshal(req.Program, &p); err != nil {
			return nil, nil, badRequest("%v", err)
		}
		prog = &p
	default:
		return nil, nil, badRequest("request must set source or program")
	}
	for _, g := range req.SymbolicGlobals {
		if !prog.SymbolicGlobal(g, g) {
			return nil, nil, badRequest("unknown symbolic global %q", g)
		}
	}

	cfg := spectre.DefaultConfig()
	if len(req.Config) > 0 {
		if err := json.Unmarshal(req.Config, &cfg); err != nil {
			return nil, nil, badRequest("config: %v", err)
		}
	}
	for _, c := range []struct {
		name     string
		got, max int
	}{
		{"bound", cfg.Bound, maxRequestBound},
		{"maxStates", cfg.MaxStates, maxRequestStates},
		{"maxRetired", cfg.MaxRetired, maxRequestRetired},
	} {
		if c.got > c.max {
			return nil, nil, badRequest("config: %s %d exceeds the per-request cap of %d", c.name, c.got, c.max)
		}
	}
	an, err := spectre.NewFromConfig(cfg)
	if err != nil {
		return nil, nil, badRequest("%v", err)
	}
	return prog, an, nil
}

// ---------------------------------------------------------------------
// Handlers
// ---------------------------------------------------------------------

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	s.analyzeReqs.Add(1)
	keyOf := func(m memoEntry) string { return analyzeKey(m.fp, m.ck) }
	s.serveVerdict(w, r, keyOf, func(ctx context.Context, req *verdictRequest) ([]byte, error) {
		rep, err := s.runAnalysis(ctx, req.an, req.prog)
		if err != nil {
			return nil, err
		}
		rep.SchemaVersion = spectre.ReportSchemaVersion
		return json.Marshal(AnalyzeResponse{Fingerprint: req.fp, CacheKey: req.ck, Report: rep})
	})
}

func (s *Server) handleRepair(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	s.repairReqs.Add(1)
	keyOf := func(m memoEntry) string { return repairKey(m.fp, m.repairCK) }
	s.serveVerdict(w, r, keyOf, func(ctx context.Context, req *verdictRequest) ([]byte, error) {
		res, err := s.runRepair(ctx, req.an, req.prog)
		if err != nil {
			return nil, err
		}
		if res.Before != nil {
			res.Before.SchemaVersion = spectre.ReportSchemaVersion
		}
		if res.After != nil {
			res.After.SchemaVersion = spectre.ReportSchemaVersion
		}
		env := RepairResponse{Fingerprint: req.fp, CacheKey: req.repairCK, Result: res}
		if res.Outcome == spectre.RepairRepaired {
			env.RepairedProgram = res.Program
		}
		return json.Marshal(env)
	})
}

// serveVerdict answers an analyze or repair request: from the cache
// when it holds the verdict under the key keyOf derives from what the
// body resolves to, from another request's in-flight analysis when one
// is running, and otherwise by running run in a worker slot and
// storing its envelope at the cost run took. A body the memo knows
// reaches the cache lookup without being decoded; it is decoded only
// if the verdict has to be computed again.
func (s *Server) serveVerdict(w http.ResponseWriter, r *http.Request, keyOf func(memoEntry) string,
	run func(context.Context, *verdictRequest) ([]byte, error)) {
	req, err := s.readRequest(r)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, spectre.ErrCodeBadRequest, err)
		return
	}
	key := keyOf(req.memoEntry)
	if v, tier := s.cache.Get(key); tier != TierNone {
		s.recordHit(tier)
		s.indexFingerprint(req.fp, key)
		s.writeVerdict(w, v, provCacheHit)
		return
	}
	if req.prog == nil {
		// Memoized, but the verdict has been evicted.
		if err := s.decode(req); err != nil {
			s.writeError(w, http.StatusBadRequest, spectre.ErrCodeBadRequest, err)
			return
		}
	}

	v, shared, err := s.flights.Do(r.Context(), key, func(ctx context.Context) (verdict, error) {
		return s.runJob(ctx, func(runCtx context.Context) (verdict, error) {
			start := time.Now()
			out, err := run(runCtx, req)
			if err != nil {
				return verdict{}, err
			}
			cost := time.Since(start)
			s.engineNanos.Add(int64(cost))
			v := s.cache.Put(key, out, cost)
			s.indexFingerprint(req.fp, key)
			return v, nil
		})
	})
	prov := provFresh
	if shared {
		s.coalesced.Add(1)
		prov = provCoalesced
	}
	if err != nil {
		s.writeJobError(w, r, err)
		return
	}
	s.writeVerdict(w, v, prov)
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	fp := r.PathValue("fingerprint")
	s.fpMu.Lock()
	key, ok := s.byFP[fp]
	s.fpMu.Unlock()
	if !ok {
		s.writeError(w, http.StatusNotFound, spectre.ErrCodeNotFound, fmt.Errorf("no cached report for fingerprint %s", fp))
		return
	}
	v, tier := s.cache.Get(key)
	if tier == TierNone {
		s.writeError(w, http.StatusNotFound, spectre.ErrCodeNotFound, fmt.Errorf("report for fingerprint %s evicted", fp))
		return
	}
	s.writeVerdict(w, v, provCacheHit)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	resp := HealthResponse{Status: "ok"}
	if s.cache.Stats().DiskDegraded {
		resp.Status = "degraded"
		resp.DiskTier = "disabled"
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleStatsz(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, s.Stats())
}

// Stats snapshots the service counters.
func (s *Server) Stats() StatsResponse {
	hits := s.memHits.Load() + s.diskHits.Load()
	verdictReqs := s.analyzeReqs.Load() + s.repairReqs.Load()
	rate := 0.0
	if verdictReqs > 0 {
		rate = float64(hits) / float64(verdictReqs)
	}
	cs := s.cache.Stats()
	// Under admitMu no analysis is admitted, and only admitted ones
	// hold slots, so running never exceeds admitted.
	s.admitMu.Lock()
	running, admitted := len(s.slots), s.admitted
	s.admitMu.Unlock()
	return StatsResponse{
		UptimeSeconds:   time.Since(s.started).Seconds(),
		Requests:        s.requests.Load(),
		AnalyzeRequests: s.analyzeReqs.Load(),
		RepairRequests:  s.repairReqs.Load(),
		MemHits:         s.memHits.Load(),
		DiskHits:        s.diskHits.Load(),
		Coalesced:       s.coalesced.Load(),
		Analyses:        s.analyses.Load(),
		EngineSeconds:   time.Duration(s.engineNanos.Load()).Seconds(),
		Rejected:        s.rejected.Load(),
		Errors:          s.errCount.Load(),
		CacheHitRate:    rate,
		InFlight:        int64(running),
		QueueDepth:      admitted - running,
		QueueCapacity:   s.cfg.QueueDepth,
		Workers:         s.cfg.Workers,
		MemEntries:      s.cache.MemLen(),
		MemEvictions:    cs.MemEvictions,
		DiskErrors:      cs.DiskErrors,
		Panics:          s.panics.Load(),
		Quarantined:     cs.Quarantined,
		GCEvictions:     cs.GCEvictions,
		DiskBytes:       cs.DiskBytes,
		DiskDegraded:    cs.DiskDegraded,
		InjectedFaults:  s.flt.injectedCount(),
	}
}

// ---------------------------------------------------------------------
// Job execution
// ---------------------------------------------------------------------

// panicError wraps a recovered analysis panic so it can flow through
// the flight group to every waiter as an ordinary error and be mapped
// to a structured 500 with a stable code.
type panicError struct{ val any }

func (e *panicError) Error() string {
	return fmt.Sprintf("analysis panicked: %v", e.val)
}

// runJob admits one analysis and runs it in a worker slot. Admission
// never blocks: a draining server, or one with Workers+QueueDepth
// analyses already admitted, refuses with errQueueFull. An admitted
// analysis then waits for a slot. ctx is the flight context: it stays
// live while any request is waiting on this analysis and is cancelled
// when the last one leaves, which is how a dropped client connection
// propagates into the analysis — or takes it out of the queue before
// it starts. The per-request budget starts when the analysis takes its
// slot, so queue wait doesn't eat analysis time.
func (s *Server) runJob(ctx context.Context, run func(context.Context) (verdict, error)) (verdict, error) {
	if s.flt.fire(sitePoolAdmit) || !s.admit() {
		s.rejected.Add(1)
		return verdict{}, errQueueFull
	}
	defer s.leave()
	select {
	case s.slots <- struct{}{}:
	case <-ctx.Done():
		return verdict{}, ctx.Err()
	}
	defer func() { <-s.slots }()
	return s.executeJob(ctx, run)
}

// admit counts one more admitted analysis, unless the server is
// draining or Workers+QueueDepth analyses are already admitted.
func (s *Server) admit() bool {
	s.admitMu.Lock()
	defer s.admitMu.Unlock()
	if s.closed || s.admitted >= s.cfg.Workers+s.cfg.QueueDepth {
		return false
	}
	s.admitted++
	return true
}

// leave releases an admission taken by admit.
func (s *Server) leave() {
	s.admitMu.Lock()
	s.admitted--
	s.admitMu.Unlock()
}

// executeJob runs one analysis under the per-request budget inside
// the panic-isolation boundary: a panicking analysis is recovered
// here, counted, and converted into a panicError. Because executeJob
// always returns (never re-panics), runJob always frees its slot and
// admission — waiters cannot hang on a crashed analysis — and because
// the error propagates through the flight group like any other, every
// coalesced waiter sees the failure and the flight unmaps, so a
// poisoned flight cannot wedge future identical requests.
func (s *Server) executeJob(ctx context.Context, run func(context.Context) (verdict, error)) (v verdict, err error) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		s.panics.Add(1)
		s.errCount.Add(1)
		if r != any(errInjectedPanic) {
			log.Printf("serve: recovered analysis panic: %v\n%s", r, debug.Stack())
		}
		v, err = verdict{}, &panicError{val: r}
	}()
	if ctx.Err() != nil {
		return verdict{}, ctx.Err()
	}
	runCtx, cancel := ctx, context.CancelFunc(func() {})
	if s.cfg.Timeout > 0 {
		runCtx, cancel = context.WithTimeout(ctx, s.cfg.Timeout)
	}
	defer cancel()
	if s.flt.fire(siteEngine) {
		panic(errInjectedPanic)
	}
	v, err = run(runCtx)
	switch {
	case err == nil:
		s.analyses.Add(1)
	case errors.Is(err, context.Canceled):
		// Abandoned flight — every waiter left. Not a service error.
	default:
		s.errCount.Add(1)
	}
	return v, err
}

// ---------------------------------------------------------------------
// Response writing
// ---------------------------------------------------------------------

// recordHit counts a verdict request (analyze or repair) answered from
// the cache. GET /v1/report reads are not counted, so cacheHitRate
// stays hits over verdict requests.
func (s *Server) recordHit(tier Tier) {
	switch tier {
	case TierMem:
		s.memHits.Add(1)
	case TierDisk:
		s.diskHits.Add(1)
	}
}

// indexFingerprint points GET /v1/report for fp at key when key holds
// an analyze verdict; repair keys are not indexed.
func (s *Server) indexFingerprint(fp, key string) {
	if !strings.HasPrefix(key, analyzePrefix) {
		return
	}
	s.fpMu.Lock()
	s.byFP[fp] = key
	s.fpMu.Unlock()
}

// provenance is how a response came by its verdict: run fresh for this
// request, answered from the cache, or shared from another request's
// in-flight analysis.
type provenance int

const (
	provFresh provenance = iota
	provCacheHit
	provCoalesced
)

var (
	cacheHitField  = []byte(`,"cacheHit":true`)
	coalescedField = []byte(`,"coalesced":true`)
	resultAnchor   = []byte(`,"result":`)
	reportEnd      = []byte(`}}`)
	newline        = []byte("\n")
)

// writeVerdict sends a stored verdict envelope with this response's
// provenance. The stored bytes always have both flags unset, so a fresh
// analysis writes them through untouched; a cache hit, a coalesced
// waiter or a GET /v1/report read gets them with its flag spliced in at
// the verdict's anchor, plus the trailing newline json.Encoder writes.
// The body is byte-identical to decoding the envelope, setting the flag
// and re-encoding it, and costs neither that nor a scan: the anchor was
// found and the stamped form validated when the verdict entered the
// memory tier. A corrupt verdict (anchor -1) is answered with a
// structured 500, never served.
func (s *Server) writeVerdict(w http.ResponseWriter, v verdict, prov provenance) {
	if prov == provFresh {
		s.writeRaw(w, v.raw)
		return
	}
	if v.anchor < 0 {
		s.writeError(w, http.StatusInternalServerError, spectre.ErrCodeInternal,
			errors.New("corrupt cache entry: envelope has no provenance anchor or its stamped form is not valid JSON"))
		return
	}
	field := cacheHitField
	if prov == provCoalesced {
		field = coalescedField
	}
	s.writeRaw(w, v.raw[:v.anchor], field, v.raw[v.anchor:], newline)
}

// provenanceAnchor returns the offset in the stored envelope raw at
// which encoding/json would put the cacheHit or coalesced flag, or -1
// when raw is not a servable envelope. The key's prefix names the
// envelope, and the offset follows from the field order documented on
// AnalyzeResponse, RepairResponse and spectre.Report:
//
//   - analyze: Report is the envelope's last field and CacheHit,
//     Coalesced the report's last fields, so the flag goes before the
//     final "}}";
//   - repair: CacheHit, Coalesced sit between the fixed-width hex
//     CacheKey and Result, so the flag goes before the first
//     `,"result":`.
//
// An entry without its anchor, or whose stamped form is not valid JSON,
// is corrupt. The two flags have the same shape, so one stamped form
// stands for both. This runs once per entry, as it enters the memory
// tier; the check costs a copy and a scan of the envelope.
func provenanceAnchor(key string, raw []byte) int {
	at := -1
	switch {
	case strings.HasPrefix(key, analyzePrefix):
		if bytes.HasSuffix(raw, reportEnd) {
			at = len(raw) - len(reportEnd)
		}
	case strings.HasPrefix(key, repairPrefix):
		at = bytes.Index(raw, resultAnchor)
	}
	if at < 0 {
		return -1
	}
	stamped := make([]byte, 0, len(raw)+len(cacheHitField))
	stamped = append(stamped, raw[:at]...)
	stamped = append(stamped, cacheHitField...)
	stamped = append(stamped, raw[at:]...)
	if !json.Valid(stamped) {
		return -1
	}
	return at
}

// writeRaw sends a 200 JSON body made of the given parts, in order.
func (s *Server) writeRaw(w http.ResponseWriter, parts ...[]byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	for _, p := range parts {
		if _, err := w.Write(p); err != nil {
			return // client gone; nothing to do
		}
	}
}

func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client gone; nothing to do
}

// writeJobError maps an analysis failure onto HTTP semantics: a full
// queue is backpressure (429 + Retry-After), an exhausted budget is a
// gateway timeout, a recovered panic is a structured 500 with the
// stable engine_panic code, a request whose client already left gets
// nothing.
func (s *Server) writeJobError(w http.ResponseWriter, r *http.Request, err error) {
	var pe *panicError
	switch {
	case errors.Is(err, errQueueFull):
		w.Header().Set("Retry-After", "1")
		s.writeError(w, http.StatusTooManyRequests, spectre.ErrCodeQueueFull, err)
	case errors.Is(err, context.DeadlineExceeded):
		s.writeError(w, http.StatusGatewayTimeout, spectre.ErrCodeTimeout,
			fmt.Errorf("analysis exceeded the %s budget", s.cfg.Timeout))
	case errors.As(err, &pe):
		s.writeError(w, http.StatusInternalServerError, spectre.ErrCodeEnginePanic, err)
	case r.Context().Err() != nil:
		// The client disconnected; the connection is dead.
	default:
		s.writeError(w, http.StatusInternalServerError, spectre.ErrCodeInternal, err)
	}
}

func (s *Server) writeError(w http.ResponseWriter, status int, code string, err error) {
	s.writeJSON(w, status, ErrorResponse{Code: code, Error: err.Error()})
}
