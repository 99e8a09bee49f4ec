// Command refrint-serve runs the Refrint sweep service: an HTTP API that
// accepts sweep jobs, runs their simulation cells on one bounded
// priority-aware worker pool, keeps every simulated cell in a
// content-addressed store, and serves the paper's Table 6.1 and Figure
// 6.1-6.4 data series as JSON.
//
// Quickstart:
//
//	refrint-serve -addr :8080 -data-dir /var/lib/refrint &
//	curl -s -X POST localhost:8080/v1/sweeps \
//	     -d '{"apps":["FFT","LU"],"retention_times_us":[50],"effort_scale":0.25}'
//	curl -s localhost:8080/v1/sweeps/job-000001            # poll progress
//	curl -sN localhost:8080/v1/sweeps/job-000001/events    # stream progress (SSE)
//	curl -s localhost:8080/v1/sweeps/job-000001/figures    # figure series (job id or sweep key)
//	curl -s -X DELETE localhost:8080/v1/sweeps/job-000001  # cancel
//	curl -s -X POST localhost:8080/v1/batches \
//	     -d '{"priority":"background","client":"nightly","requests":[{"apps":["FFT"]},{"apps":["LU"]}]}'
//	curl -s localhost:8080/v1/batches/batch-000001         # aggregated batch state
//	curl -s localhost:8080/v1/sims                         # catalog
//	curl -s localhost:8080/healthz
//	curl -s localhost:8080/metrics                         # operational counters
//
// Sweeps carry an optional priority class (interactive > batch >
// background) and client label, which their cells inherit; classes dequeue
// by weighted fair share (-class-weights), clients within a class
// round-robin, and every worker pulls from the same queues, so no worker
// idles while any queue holds work.  Overlapping sweeps share the cells they
// have in common, simulating each once, and a sweep whose cells are all
// stored is answered at once from them.
//
// The store lives in memory, bounded by -store-max-bytes.  With -data-dir it
// lives on disk instead: the cells and the manifests of completed sweeps
// survive restarts, so a restarted server serves previously completed sweeps
// without re-running anything.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"refrint/internal/faults"
	"refrint/internal/sched"
	"refrint/internal/server"
	"refrint/internal/store"
)

// newLogger builds the process logger from -log-format/-log-level.
func newLogger(format, level string) (*slog.Logger, error) {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("-log-level: %v", err)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("-log-format: want text or json, got %q", format)
	}
}

// debugMux builds the opt-in debugging listener's handler: pprof profiles
// and expvar counters.  These are registered on a private mux served only on
// -debug-addr — never on the public API listener, so exposing the service
// does not expose heap dumps or CPU profiles.
func debugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	return mux
}

// parseClassTriple parses a "interactive,batch,background" integer triple
// flag ("" means all defaults; positive values only).
func parseClassTriple(flagName, s string) ([sched.NumClasses]int, error) {
	var out [sched.NumClasses]int
	if s == "" {
		return out, nil
	}
	parts := strings.Split(s, ",")
	if len(parts) != sched.NumClasses {
		return out, fmt.Errorf("-%s: want %d comma-separated values (interactive,batch,background), got %q", flagName, sched.NumClasses, s)
	}
	for i, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n <= 0 {
			return out, fmt.Errorf("-%s: value %q must be a positive integer", flagName, p)
		}
		out[i] = n
	}
	return out, nil
}

// checkClientRate rejects a -client-rate that is NaN, infinite or negative;
// 0 leaves quotas off.
func checkClientRate(rate float64) error {
	if math.IsNaN(rate) || math.IsInf(rate, 0) || rate < 0 {
		return fmt.Errorf("-client-rate: want a finite rate of at least 0 (0 = no limit), got %v", rate)
	}
	return nil
}

// gomaxprocsFor returns the GOMAXPROCS to run with, given the current
// value, whether the GOMAXPROCS environment variable set it, and the number
// of simulation workers.  Each worker keeps a P busy while it simulates, so
// one P more than there are workers stays free: the goroutines serving HTTP
// and SSE then run as soon as the network poller wakes them, instead of
// waiting ~10ms for the runtime to preempt a simulation.  An explicit
// GOMAXPROCS is kept as given; tooFew reports that it leaves no P free.
func gomaxprocsFor(current int, fromEnv bool, workers int) (procs int, tooFew bool) {
	if fromEnv {
		return current, current <= workers
	}
	return max(current, workers+1), false
}

func main() {
	var (
		addr           = flag.String("addr", ":8080", "listen address")
		workers        = flag.Int("workers", runtime.NumCPU(), "simulation workers: cells simulated at a time across all sweeps (GOMAXPROCS is raised to workers+1 unless set in the environment)")
		queueDepth     = flag.Int("queue-depth", 8, "pending sweeps per worker per priority class (each class admits workers*queue-depth)")
		classDepths    = flag.String("class-queue-depths", "", "per-class queued-sweep bounds as interactive,batch,background (overrides -queue-depth scaling)")
		classWeights   = flag.String("class-weights", "", "weighted-fair dequeue shares as interactive,batch,background (default 16,4,1)")
		jobHistory     = flag.Int("job-history", 1024, "finished jobs kept pollable")
		batchHistory   = flag.Int("batch-history", 256, "finished batches kept pollable")
		dataDir        = flag.String("data-dir", "", "persist the store (simulation cells and completed-sweep manifests) under this directory; restarts serve completed sweeps without re-running them (default: memory only)")
		storeMaxBytes  = flag.Int64("store-max-bytes", 1<<30, "LRU byte budget of the cell store, on disk with -data-dir or in memory without")
		eventHeartbeat = flag.Duration("event-heartbeat", 15*time.Second, "keepalive comment interval on SSE /events streams")
		clientRate     = flag.Float64("client-rate", 0, "per-client submission rate limit in requests/second (0 = no limit); over-quota submissions get 429 with Retry-After")
		clientBurst    = flag.Int("client-burst", 0, "per-client submission burst with -client-rate (0 = ceil(client-rate))")
		jobTimeout     = flag.Duration("job-timeout", 0, "fail any sweep execution that outlives this wall-clock bound (0 = none); a request's timeout_ms may only lower it")
		drainTimeout   = flag.Duration("drain-timeout", 10*time.Second, "on SIGTERM/SIGINT, how long in-flight sweeps get to finish before the hard stop")
		faultSpec      = flag.String("fault-spec", "", "inject faults for chaos testing, e.g. 'store.put:error:0.5,sim.run:panic:0.01' (point:mode[:arg][:rate], comma-separated; NEVER set in production)")
		logFormat      = flag.String("log-format", "text", "structured log format: text or json")
		logLevel       = flag.String("log-level", "info", "minimum log level: debug, info, warn or error")
		debugAddr      = flag.String("debug-addr", "", "serve pprof and expvar debugging endpoints on this address (e.g. localhost:6060); keep it private — it exposes profiles, never enable it on the public listener")
	)
	flag.Parse()

	logger, err := newLogger(*logFormat, *logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "refrint-serve:", err)
		os.Exit(2)
	}
	logf := func(format string, args ...any) {
		logger.Info(fmt.Sprintf(format, args...))
	}

	depths, err := parseClassTriple("class-queue-depths", *classDepths)
	if err != nil {
		fmt.Fprintln(os.Stderr, "refrint-serve:", err)
		os.Exit(2)
	}
	weights, err := parseClassTriple("class-weights", *classWeights)
	if err != nil {
		fmt.Fprintln(os.Stderr, "refrint-serve:", err)
		os.Exit(2)
	}
	if err := checkClientRate(*clientRate); err != nil {
		fmt.Fprintln(os.Stderr, "refrint-serve:", err)
		os.Exit(2)
	}
	if *faultSpec != "" {
		inj, err := faults.Parse(*faultSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "refrint-serve:", err)
			os.Exit(2)
		}
		faults.Enable(inj)
		logger.Warn("fault injection active — this process WILL misbehave on purpose", "spec", *faultSpec)
	}

	st, err := store.Open(*dataDir, store.Options{MaxBytes: *storeMaxBytes, Logf: logf})
	if err != nil {
		fmt.Fprintln(os.Stderr, "refrint-serve:", err)
		os.Exit(1)
	}
	defer st.Close()
	logger.Info("store opened", "dir", *dataDir, "blobs", st.Stats().Entries, "max_bytes", *storeMaxBytes)

	cfg := server.Config{
		Workers:         *workers,
		QueueDepth:      *queueDepth,
		ClassQueueDepth: depths,
		ClassWeights:    weights,
		JobHistory:      *jobHistory,
		BatchHistory:    *batchHistory,
		EventHeartbeat:  *eventHeartbeat,
		ClientRate:      *clientRate,
		ClientBurst:     *clientBurst,
		JobTimeout:      *jobTimeout,
		Store:           st,
		Logger:          logger,
	}
	nworkers := cfg.NumWorkers()
	procs, tooFew := gomaxprocsFor(runtime.GOMAXPROCS(0), os.Getenv("GOMAXPROCS") != "", nworkers)
	runtime.GOMAXPROCS(procs)
	if tooFew {
		logger.Warn("GOMAXPROCS leaves no P free for HTTP and SSE: requests may wait ~10ms behind running simulations",
			"gomaxprocs", procs, "workers", nworkers)
	}
	svc := server.New(cfg)
	defer svc.Close()

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           svc,
		ReadHeaderTimeout: 10 * time.Second,
		// Reap idle keep-alive connections so forgotten clients cannot pin
		// sockets forever.  WriteTimeout deliberately stays 0: SSE /events
		// responses are long-lived streams and a write deadline would sever
		// every subscriber mid-stream (slow consumers are already bounded by
		// the event bus's per-subscriber buffer instead).
		IdleTimeout: 2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	if *debugAddr != "" {
		dbg := &http.Server{
			Addr:              *debugAddr,
			Handler:           debugMux(),
			ReadHeaderTimeout: 10 * time.Second,
			IdleTimeout:       2 * time.Minute,
		}
		go func() {
			logger.Info("debug listener (pprof, expvar) up", "addr", *debugAddr)
			if err := dbg.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				// The debug listener is an operator convenience: its failure
				// is loud but not fatal to the service.
				logger.Error("debug listener failed", "err", err)
			}
		}()
		defer dbg.Close()
	}
	go func() {
		logger.Info("listening", "addr", *addr, "gomaxprocs", procs, "workers", nworkers)
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "refrint-serve:", err)
			os.Exit(1)
		}
	case <-ctx.Done():
		// Graceful drain: stop admitting (submissions 503 with Retry-After,
		// /healthz flips to "closing" so load balancers route away), give
		// in-flight sweeps -drain-timeout to finish, then hard-stop.
		logger.Info("shutting down: draining", "drain_timeout", *drainTimeout)
		svc.BeginDrain(*drainTimeout)
		drainCtx, cancelDrain := context.WithTimeout(context.Background(), *drainTimeout)
		err := svc.Drain(drainCtx)
		cancelDrain()
		if err != nil {
			logger.Warn("drain incomplete, aborting remaining sweeps", "err", err)
		}
		// Close before Shutdown: it flushes terminal events and ends the SSE
		// streams whose open responses would otherwise hold Shutdown until
		// its deadline.  Idempotent with the deferred Close above.
		svc.Close()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(shutdownCtx)
	}
}
