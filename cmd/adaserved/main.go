// Command adaserved serves JSR stability certification over HTTP with
// a content-addressed certificate cache.
//
//	adaserved [-addr :8080] [-workers N] [-cache-dir DIR] [-queue N]
//	          [-timeout 5m] [-rate R] [-burst N] [-max-inflight N]
//	          [-cache-probe 30s] [-store-segment BYTES] [-version]
//
// Endpoints:
//
//	POST /v1/certify    certify a matrix set or named scenario (JSON);
//	                    small requests answer synchronously, large ones
//	                    return 202 with a job reference
//	GET  /v1/jobs/{id}  poll an asynchronous job; ?watch=1 long-polls
//	                    until the job changes state
//	GET  /healthz       liveness, build version, queue/job counters
//	GET  /metrics       Prometheus text exposition
//
// With -cache-dir, certificates persist across restarts and queued or
// in-flight jobs are checkpointed: a job's frontier at a Gripenberg
// level boundary is persisted at most once per second of search. A
// restarted server resumes each job from its last checkpoint and
// finishes with bit-identical bounds. SIGINT/SIGTERM shut down
// gracefully: intake stops, workers drain the queue (bounded by
// -timeout), and whatever is still running checkpoints and exits
// cleanly.
//
// Admission control: -rate and -burst run a per-client token bucket on
// POST /v1/certify (429 + Retry-After when exceeded; clients are keyed
// on X-Client-ID, falling back to the remote host), and -max-inflight
// caps concurrent certify handlers (503 + Retry-After from the
// observed drain rate). Disk faults under -cache-dir demote the
// certificate cache to memory-only instead of failing requests;
// /healthz reports the degraded state and a recovery probe (every
// -cache-probe) re-promotes the disk once it heals.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"adaptivertc/internal/buildinfo"
	"adaptivertc/internal/certcache"
	"adaptivertc/internal/server"
)

func main() {
	os.Exit(run())
}

func run() int {
	addr := flag.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
	workers := flag.Int("workers", 0, "job-queue workers (0 = all cores); certified bounds are identical for every value")
	cacheDir := flag.String("cache-dir", "", "persist certificates and job checkpoints under this directory (empty = memory only)")
	queue := flag.Int("queue", 64, "bounded job queue capacity; a full queue answers 503")
	timeout := flag.Duration("timeout", 5*time.Minute, "per-job wall-clock budget")
	rate := flag.Float64("rate", 0, "per-client certify requests per second (token bucket refill; 0 = no rate limit)")
	burst := flag.Int("burst", 0, "per-client token-bucket capacity (0 = default 8; only meaningful with -rate)")
	maxInflight := flag.Int("max-inflight", 0, "max concurrent certify requests before shedding 503 (0 = unlimited)")
	cacheProbe := flag.Duration("cache-probe", 0, "recovery-probe interval while the disk cache is degraded (0 = default 30s)")
	storeSegment := flag.Int64("store-segment", 0, "segment rotation threshold in bytes for the persistent logs (0 = default 64 MiB)")
	version := flag.Bool("version", false, "print build/version information and exit")
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.Line("adaserved"))
		return 0
	}

	var certDir, stateDir string
	if *cacheDir != "" {
		certDir = filepath.Join(*cacheDir, "certs")
		stateDir = *cacheDir
	}
	cache, err := certcache.New(certcache.Options{Dir: certDir, ProbeInterval: *cacheProbe, SegmentBytes: *storeSegment})
	if err != nil {
		fmt.Fprintln(os.Stderr, "adaserved:", err)
		return 2
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "adaserved:", err)
		return 2
	}

	svc, err := server.New(server.Config{
		Workers:           *workers,
		QueueSize:         *queue,
		Timeout:           *timeout,
		Cache:             cache,
		StateDir:          stateDir,
		StoreSegmentBytes: *storeSegment,
		RatePerSec:        *rate,
		Burst:             *burst,
		MaxInflight:       *maxInflight,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "adaserved:", err)
		return 2
	}
	if n, err := svc.Recover(); err != nil {
		fmt.Fprintln(os.Stderr, "adaserved:", err)
		return 2
	} else if n > 0 {
		fmt.Printf("recovered %d checkpointed job(s)\n", n)
	}
	svc.Start()

	httpSrv := &http.Server{
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		// Synchronous certifications run under the per-job budget;
		// leave headroom so the write deadline never truncates one.
		WriteTimeout: *timeout + 30*time.Second,
		IdleTimeout:  2 * time.Minute,
	}
	fmt.Printf("listening on %s\n", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "adaserved:", err)
		return 2
	case <-ctx.Done():
	}
	stop()
	fmt.Println("shutting down: draining queue")

	// Stop intake first, then drain the workers. Both phases share one
	// wall-clock budget; past it, in-flight searches checkpoint at the
	// next level boundary and the process still exits cleanly.
	shutCtx, cancel := context.WithTimeout(context.Background(), *timeout+10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		fmt.Fprintln(os.Stderr, "adaserved: http shutdown:", err)
	}
	if err := svc.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "adaserved: drain:", err)
	}
	fmt.Println("bye")
	return 0
}
