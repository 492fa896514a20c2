// Command spectred is the analysis daemon: the spectre façade served
// over HTTP, for CI pipelines and editor integrations that submit the
// same programs repeatedly and want verdicts without paying process
// startup or re-analysis.
//
//	spectred -addr :8321 -cache-dir /var/cache/spectred
//
// Endpoints (JSON request/response throughout):
//
//	POST /v1/analyze            analyze a program (CTL source or wire form)
//	POST /v1/repair             synthesize a mitigation
//	GET  /v1/report/{fp}        fetch the cached verdict for a fingerprint
//	GET  /healthz               liveness
//	GET  /statsz                service counters
//
// Verdicts are cached under (program fingerprint, config cache key) in
// a bounded in-memory tier plus an optional on-disk tier (-cache-dir)
// that survives restarts. The memory tier evicts by GreedyDual: each
// verdict is weighed by the wall time it took to produce, so cheap,
// stale verdicts leave before expensive ones, and with equal costs it
// is LRU. Disk entries are sha256-checksummed and
// verified on read; corrupt or truncated files are quarantined, never
// served. -cache-disk-bytes bounds the disk tier with LRU eviction.
// Concurrent identical submissions coalesce into one analysis. When
// the bounded work queue is full the daemon answers 429 with
// Retry-After rather than queueing unboundedly.
//
// The daemon is built to survive its inputs: a panicking analysis is
// recovered and answered as a structured 500 (code "engine_panic"),
// disk I/O failures degrade to cache misses, and repeated disk
// failures disable the persistent tier — /healthz then reports
// "degraded" (still HTTP 200) and serving continues memory-only.
// Every non-2xx response carries a stable machine-readable error code
// (see the spectre package's ErrCode constants); /statsz exposes the
// fault-tolerance counters (panics, quarantined, gcEvictions,
// diskBytes, injectedFaults).
//
// For chaos testing only, the SPECTRED_FAULTS environment variable
// installs a deterministic fault-injection plan, e.g.
//
//	SPECTRED_FAULTS="seed=7,engine=0.05,diskread=0.1,diskwrite=0.1,cachelookup=0.1,pooladmit=0.05"
//
// There is deliberately no flag: production configuration cannot turn
// this on by accident.
//
// On SIGTERM or SIGINT the daemon stops accepting connections, lets
// in-flight and queued analyses finish, then exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"pitchfork/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8321", "listen address")
	workers := flag.Int("workers", runtime.NumCPU(), "concurrent analyses")
	queue := flag.Int("queue", 64, "bounded work queue depth (full queue → 429)")
	memEntries := flag.Int("cache-entries", 1024, "in-memory verdict cache capacity")
	cacheDir := flag.String("cache-dir", "", "persistent verdict cache directory (empty disables)")
	cacheDiskBytes := flag.Int64("cache-disk-bytes", 0, "persistent-tier byte budget with LRU eviction (0 = unbounded)")
	timeout := flag.Duration("timeout", 60*time.Second, "per-request analysis budget")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "shutdown budget for open connections")
	flag.Parse()

	if spec := os.Getenv("SPECTRED_FAULTS"); spec != "" {
		log.Printf("CHAOS: fault injection enabled: %s", spec)
	}
	if err := run(*addr, serve.Config{
		Workers:    *workers,
		QueueDepth: *queue,
		MemEntries: *memEntries,
		CacheDir:   *cacheDir,
		DiskBytes:  *cacheDiskBytes,
		Timeout:    *timeout,
	}, *drainTimeout); err != nil {
		log.Fatal(err)
	}
}

func run(addr string, cfg serve.Config, drainTimeout time.Duration) error {
	svc, err := serve.New(cfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	httpSrv := &http.Server{Handler: svc.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	log.Printf("spectred listening on %s (workers=%d queue=%d cache-entries=%d cache-dir=%q timeout=%s)",
		ln.Addr(), cfg.Workers, cfg.QueueDepth, cfg.MemEntries, cfg.CacheDir, cfg.Timeout)

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		if !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately

	log.Printf("signal received: draining")
	shutCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		log.Printf("shutdown: %v", err)
	}
	svc.Drain()
	log.Printf("drained")
	return nil
}
