// Command streakd serves the Streak flow over HTTP: POST a design JSON to
// /route and get the routed metrics, the solver's degradation history and
// an independent legality verdict back.
//
// Usage:
//
//	streakd [-addr :8080] [-max-inflight 4] [-queue 8] [-queue-wait 5s]
//	        [-solve-timeout 60s] [-drain-timeout 30s]
//	        [-method pd|ilp|hier] [-audit off|warn|strict] [-fallback]
//	        [-workers 0] [-ilptime 60s] [-faultinject SPEC]
//	        [-jobs-dir DIR] [-job-retries 3] [-job-workers 2]
//	        [-cache-size 64] [-telemetry-dir DIR] [-telemetry-buffer 256]
//	        [-record-dir DIR] [-record-segment-kb 4096] [-record-retain 8]
//
// The service is built for rough weather: concurrency is bounded by
// -max-inflight, excess requests wait in a bounded queue and are shed with
// 429 + Retry-After when it overflows, every solve runs under
// -solve-timeout, request panics become 500s without killing the process,
// and SIGTERM/SIGINT triggers a graceful drain (readiness flips first, in-
// flight solves get -drain-timeout to finish, stragglers are canceled).
//
// Beyond the synchronous POST /route, the daemon runs a durable async
// tier: POST /jobs returns a job ID immediately (an Idempotency-Key header
// makes client retries safe), GET /jobs/{id} polls status + result, DELETE
// cancels, and GET /jobs/{id}/events streams live solver progress. With
// -jobs-dir set, every job state transition is journaled to a checksummed
// fsync'd WAL in that directory (a jobs.wal from an older streakd becomes
// its first segment) and replayed at boot, so a crash or restart recovers
// unfinished jobs — interrupted solves retry with exponential backoff up
// to -job-retries attempts. Without -jobs-dir the tier runs on an
// in-memory store (no durability).
//
// Solves are served through a content-addressed cache (bounded by
// -cache-size): identical designs hit instantly, and near-duplicates — the
// same floorplan after a moved group or an added/removed blockage — are
// re-routed incrementally from the cached base, with every incremental
// result gated by the independent legality audit. Disable per request with
// ?cache=off, or globally with -cache-size -1.
//
// /healthz reports liveness with counters (including cache hit/miss/
// incremental statistics); /readyz reports admission capacity for
// load-balancer rotation (not-ready until WAL replay completes at boot);
// /metrics is Prometheus text exposition of the same plus the
// process-lifetime solver counter aggregate.
//
// With -telemetry-dir set, every solve (synchronous and async attempts
// alike) is distilled into the telemetry lake: an embedded append-only
// segment store with crash-safe replay, queried via
// /telemetry/v1/series and /telemetry/v1/scenarios and browsed at
// /debug/telemetry. The producer never blocks a solve — a full buffer
// (-telemetry-buffer) drops the record and counts the drop.
//
// With -record-dir set, every accepted (validated) /route and /jobs body
// is captured into a bounded ring of checksummed segments in that
// directory (older capture-*.jsonl files are not replayed) — raw material
// for record/replay load testing: cmd/streakload -replay fires a captured
// window back at a daemon with the original spacing. The WAL, the lake
// and the ring are one segment log (internal/seglog).
//
// -faultinject arms deterministic faults at the compiled-in chaos sites
// (see internal/faultinject; e.g. "pd.solve=delay:2s@3" stalls the third
// primal-dual solve) — the knob the chaos suite and smoke tests turn.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/jobs"
	"repro/internal/scenario"
	"repro/internal/server"
	"repro/internal/telemetry"

	streak "repro"
)

func main() {
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, sigs, nil))
}

// run is main with its environment injected: argument list, output
// streams, the shutdown-signal channel and an optional ready channel that
// receives the bound address once the listener is up (tests and smoke
// scripts use -addr 127.0.0.1:0 and read the real port from it).
func run(args []string, stdout, stderr io.Writer, sigs <-chan os.Signal, ready chan<- string) int {
	fs := flag.NewFlagSet("streakd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr         = fs.String("addr", ":8080", "listen address")
		maxInflight  = fs.Int("max-inflight", 4, "maximum concurrent solves")
		queue        = fs.Int("queue", 0, "maximum queued requests beyond -max-inflight (0 = 2*max-inflight)")
		queueWait    = fs.Duration("queue-wait", 5*time.Second, "how long a queued request may wait for a solve slot before being shed")
		solveTimeout = fs.Duration("solve-timeout", 60*time.Second, "per-request solve deadline")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "grace period for in-flight solves on shutdown before they are canceled")
		method       = fs.String("method", "pd", "default selection solver: pd, ilp or hier (per-request ?method= overrides)")
		auditMode    = fs.String("audit", "warn", "default legality audit mode: off, warn or strict (per-request ?audit= overrides)")
		fallbackOn   = fs.Bool("fallback", true, "degrade ilp -> hier -> pd on solver failure instead of failing the request")
		workers      = fs.Int("workers", 0, "parallel workers for the problem build (0 = GOMAXPROCS, 1 = sequential)")
		ilpTime      = fs.Duration("ilptime", 60*time.Second, "ILP time limit within the solve deadline")
		faultSpec    = fs.String("faultinject", "", "arm deterministic faults, e.g. 'pd.solve=delay:2s@3;exact.solve=panic' (chaos testing)")
		jobsDir      = fs.String("jobs-dir", "", "directory for the durable async-jobs WAL (empty = in-memory job store, no durability)")
		jobRetries   = fs.Int("job-retries", 3, "execution attempts per async job before it fails")
		jobWorkers   = fs.Int("job-workers", 2, "concurrent async job solves")
		cacheSize    = fs.Int("cache-size", 0, "content-addressed solve cache entries (0 = default 64, negative disables; per-request ?cache=off opts out)")
		telemDir     = fs.String("telemetry-dir", "", "directory for the telemetry lake's segment store (empty disables the lake)")
		telemBuffer  = fs.Int("telemetry-buffer", 256, "telemetry client buffer; pushes beyond it are dropped, never awaited")
		telemSegMB   = fs.Int("telemetry-segment-mb", 2, "telemetry segment rotation size in MiB")
		telemKeep    = fs.Int("telemetry-retain", 16, "telemetry segments kept; rotation retires the oldest beyond this")
		recordDir    = fs.String("record-dir", "", "capture accepted /route and /jobs request bodies into a bounded ring of checksummed segments in this directory (replay with streakload -replay)")
		recordSegKB  = fs.Int("record-segment-kb", 4096, "capture segment rotation size in KiB")
		recordKeep   = fs.Int("record-retain", 8, "capture segments kept; rotation deletes the oldest beyond this")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	opt, err := flowOptions(*method, *auditMode, *fallbackOn, *workers, *ilpTime)
	if err != nil {
		fmt.Fprintln(stderr, "streakd:", err)
		return 2
	}

	base := context.Background()
	if *faultSpec != "" {
		plan, err := faultinject.ParseSpec(*faultSpec)
		if err != nil {
			fmt.Fprintln(stderr, "streakd:", err)
			return 2
		}
		base = faultinject.With(base, plan)
		fmt.Fprintf(stderr, "streakd: fault plan armed: %s\n", *faultSpec)
	}

	logf := func(format string, a ...any) {
		fmt.Fprintf(stderr, "streakd: "+format+"\n", a...)
	}
	var store jobs.Store = jobs.NewMemStore()
	if *jobsDir != "" {
		wal, err := jobs.OpenWAL(*jobsDir, logf)
		if err != nil {
			fmt.Fprintln(stderr, "streakd:", err)
			return 1
		}
		defer wal.Close()
		store = wal
		fmt.Fprintf(stdout, "streakd: durable jobs WAL at %s (retries %d)\n", *jobsDir, *jobRetries)
	}

	var telem *telemetry.Service
	if *telemDir != "" {
		store, err := telemetry.OpenStore(telemetry.StoreConfig{
			Dir:          *telemDir,
			SegmentBytes: int64(*telemSegMB) << 20,
			MaxSegments:  *telemKeep,
			Logf:         logf,
		})
		if err != nil {
			fmt.Fprintln(stderr, "streakd:", err)
			return 1
		}
		telem = telemetry.NewService(store, *telemBuffer, logf)
		st := store.Stats()
		fmt.Fprintf(stdout, "streakd: telemetry lake at %s (%d records replayed, %d segments)\n",
			*telemDir, st.Records, st.Segments)
	}

	var recorder server.RequestRecorder
	if *recordDir != "" {
		cap, err := scenario.OpenCapture(*recordDir, int64(*recordSegKB)<<10, *recordKeep)
		if err != nil {
			fmt.Fprintln(stderr, "streakd:", err)
			return 1
		}
		defer cap.Close()
		recorder = cap
		fmt.Fprintf(stdout, "streakd: recording accepted requests to %s (ring of %d x %d KiB segments)\n",
			*recordDir, *recordKeep, *recordSegKB)
	}

	s := server.New(server.Config{
		MaxInflight:  *maxInflight,
		QueueDepth:   *queue,
		QueueWait:    *queueWait,
		SolveTimeout: *solveTimeout,
		Options:      opt,
		// The -audit flag is authoritative, including "off".
		AuditConfigured: true,
		BaseContext:     base,
		JobStore:        store,
		JobRetries:      *jobRetries,
		JobWorkers:      *jobWorkers,
		CacheSize:       *cacheSize,
		Telemetry:       telem,
		Recorder:        recorder,
		Logf:            logf,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "streakd:", err)
		return 1
	}
	httpSrv := &http.Server{Handler: s.Handler()}
	fmt.Fprintf(stdout, "streakd: listening on %s (max-inflight %d, queue %d, solve-timeout %s)\n",
		ln.Addr(), s.Stats().MaxInflight, s.Stats().QueueDepth, *solveTimeout)
	if ready != nil {
		ready <- ln.Addr().String()
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		fmt.Fprintln(stderr, "streakd:", err)
		return 1
	case sig := <-sigs:
		fmt.Fprintf(stdout, "streakd: %s received, draining (grace %s)\n", sig, *drainTimeout)
	}

	// Graceful shutdown: stop admitting (readyz flips to 503 and queued
	// requests release with 503), give in-flight solves the grace period,
	// then hard-cancel stragglers so the process always exits.
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	drainErr := s.Drain(dctx)
	// The solves are done or canceled; closing the HTTP side is now quick.
	shutCtx, shutCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer shutCancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		fmt.Fprintln(stderr, "streakd: shutdown:", err)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(stderr, "streakd:", err)
	}
	if telem != nil {
		// Flush buffered telemetry into the lake before exit; a slow disk
		// gets a bounded grace, not a hung shutdown.
		tctx, tcancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := telem.Close(tctx); err != nil {
			fmt.Fprintln(stderr, "streakd: telemetry close:", err)
		}
		tcancel()
	}
	st := s.Stats()
	fmt.Fprintf(stdout, "streakd: drained (served %d, shed %d, failed %d, panics isolated %d)\n",
		st.Served, st.Shed, st.Failed, st.Panics)
	if drainErr != nil {
		fmt.Fprintf(stderr, "streakd: drain canceled stragglers: %v\n", drainErr)
		return 1
	}
	return 0
}

// flowOptions assembles the base flow configuration from the flags,
// mirroring cmd/streak's method setup.
func flowOptions(method, auditMode string, fallback bool, workers int, ilpTime time.Duration) (core.Options, error) {
	opt := streak.DefaultOptions()
	switch method {
	case "pd":
	case "ilp":
		opt.Method = core.ILP
		opt.ILPTimeLimit = ilpTime
		opt.ILPWarmStart = true
	case "hier":
		opt.Method = core.Hierarchical
		opt.HierTimePerTile = ilpTime / 4
	default:
		return opt, fmt.Errorf("unknown method %q (want pd, ilp or hier)", method)
	}
	switch auditMode {
	case "off":
	case "warn":
		opt.Audit = core.AuditWarn
	case "strict":
		opt.Audit = core.AuditStrict
	default:
		return opt, fmt.Errorf("unknown audit mode %q (want off, warn or strict)", auditMode)
	}
	opt.Route.Workers = workers
	opt.Fallback = core.Fallback{Enabled: fallback}
	return opt, nil
}
