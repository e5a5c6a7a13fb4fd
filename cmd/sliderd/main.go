// Command sliderd is the Slider serving daemon: it opens (or creates) a
// durable knowledge base and serves it over HTTP — group-committed batch
// ingest, snapshot-isolated streamed queries, retraction,
// health and stats (see internal/server for the API).
//
// Usage:
//
//	sliderd -data kb/ -addr :8080
//	sliderd -addr :8080 -fragment rdfs          # in-memory (no durability)
//
//	curl -X POST --data-binary @facts.nt localhost:8080/v1/insert
//	curl -X POST -d 'SELECT ?s WHERE { ?s a <http://example.org/T> . } LIMIT 10' \
//	     localhost:8080/v1/query
//	curl -X POST --data-binary @gone.nt localhost:8080/v1/retract
//	curl localhost:8080/healthz
//
// On SIGINT/SIGTERM the daemon drains: new requests get 503, admitted
// requests finish (bounded by -drain-timeout), and the knowledge base is
// closed cleanly — taking its close-time checkpoint — before exit. A
// second signal forces immediate exit.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	slider "repro"
	"repro/internal/cmdutil"
	"repro/internal/server"
	"repro/internal/trace"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		data         = flag.String("data", "", "durable knowledge base directory (empty: in-memory, retraction still enabled)")
		fragName     = flag.String("fragment", "rhodf", "fragment to reason with: rhodf | rdfs | rdfs-lite | owl-horst")
		bufSize      = flag.Int("buffer", 0, "rule buffer size (0 = default)")
		timeout      = flag.Duration("timeout", 0, "buffer inactivity timeout (0 = default)")
		workers      = flag.Int("workers", 0, "thread pool size (0 = GOMAXPROCS)")
		adaptive     = flag.Bool("adaptive", false, "enable adaptive buffer scheduling")
		viewMaxAge   = flag.Duration("view-max-age", slider.DefaultViewMaxAge, "max staleness of the shared query snapshot")
		maxInflight  = flag.Int("max-inflight", 64, "max concurrently admitted requests (admission control)")
		maxBody      = flag.Int64("max-body", 8<<20, "max request body bytes")
		maxResults   = flag.Int("max-results", 10000, "max rows streamed per query")
		queryConc    = flag.Int("query-concurrency", 0, "max queries executing at once; excess queue (0 = GOMAXPROCS/2, negative = unlimited)")
		queryTimeout = flag.Duration("query-timeout", 30*time.Second, "per-query wall-clock budget")
		retractTO    = flag.Duration("retract-timeout", 5*time.Minute, "per-retraction delete-and-rederive budget (server-scoped: client disconnects cannot abort a running pass; a timeout mid-analysis leaves the KB untouched)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown budget (drain + close)")
		debugAddr    = flag.String("debug-addr", "", "listen address for the debug server (pprof + expvar); empty = disabled")
		logRequests  = flag.Bool("log-requests", false, "log one structured line per HTTP request to stderr")
		logJSON      = flag.Bool("log-json", false, "emit logs as JSON instead of text")
		quiet        = flag.Bool("q", false, "suppress startup/shutdown banners")
		traceSlow    = flag.Duration("trace-slow", 25*time.Millisecond, "floor for the flight recorder's slow-trace threshold (adaptive per span family above it)")
		traceRing    = flag.Int("trace-ring", 128, "retained slow/error traces at GET /debug/traces")
		noTrace      = flag.Bool("no-trace", false, "disable request/flight tracing entirely")
		diskMinFree  = flag.Int64("disk-min-free", 0, "free-space floor in bytes for the KB filesystem: warn below 2x, enter read-only degraded mode below it (0 = disabled; durable KBs only)")
	)
	flag.Parse()

	logger := newLogger(*logJSON)

	trace.Default.SetSlowThreshold(*traceSlow)
	trace.Default.SetRingCapacity(*traceRing)
	trace.Default.SetLogger(logger)
	trace.SetEnabled(!*noTrace)

	frag, err := cmdutil.FragmentByName(*fragName)
	if err != nil {
		fatal(err)
	}
	opts := []slider.Option{
		slider.WithViewMaxAge(*viewMaxAge),
		slider.WithLogger(logger),
	}
	if *diskMinFree > 0 {
		opts = append(opts, slider.WithDiskMinFree(*diskMinFree))
	}
	if *bufSize > 0 {
		opts = append(opts, slider.WithBufferSize(*bufSize))
	}
	if *timeout > 0 {
		opts = append(opts, slider.WithTimeout(*timeout))
	}
	if *workers > 0 {
		opts = append(opts, slider.WithWorkers(*workers))
	}
	if *adaptive {
		opts = append(opts, slider.WithAdaptiveScheduling())
	}

	var r *slider.Reasoner
	if *data != "" {
		r, err = slider.Open(*data, frag, opts...)
		if err != nil {
			fatal(err)
		}
		if err := r.Wait(context.Background()); err != nil {
			fatal(err)
		}
		if !*quiet {
			logger.Info("durable KB opened", "dir", *data, "triples", r.Len(), "fragment", frag.Name())
		}
	} else {
		r = slider.New(frag, opts...)
		if !*quiet {
			logger.Info("in-memory KB (data is lost on exit)", "fragment", frag.Name())
		}
	}

	reqLogger := slog.New(slog.DiscardHandler)
	if *logRequests {
		reqLogger = logger
	}
	srv := server.New(r, server.Config{
		MaxInflight:      *maxInflight,
		MaxBodyBytes:     *maxBody,
		MaxResults:       *maxResults,
		QueryTimeout:     *queryTimeout,
		QueryConcurrency: *queryConc,
		RetractTimeout:   *retractTO,
		Logger:           reqLogger,
	})
	// Header and idle timeouts bound how long a connection may sit
	// half-open (slowloris defense); request bodies and long-running
	// queries are bounded separately by the server's own budgets, so no
	// blanket ReadTimeout/WriteTimeout that would cut streamed NDJSON off.
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	// Opt-in debug listener, separate from the serving address so
	// profiling endpoints are never reachable through the public port:
	// net/http/pprof handlers plus expvar (Go runtime memstats).
	if *debugAddr != "" {
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dmux.Handle("/debug/vars", expvar.Handler())
		dbgSrv := &http.Server{
			Addr:              *debugAddr,
			Handler:           dmux,
			ReadHeaderTimeout: 10 * time.Second,
			IdleTimeout:       2 * time.Minute,
		}
		go func() {
			if !*quiet {
				logger.Info("debug server listening", "addr", *debugAddr)
			}
			if derr := dbgSrv.ListenAndServe(); derr != nil {
				logger.Error("debug server failed", "err", derr)
			}
		}()
	}

	// First SIGINT/SIGTERM starts the graceful drain; a second one (the
	// context is restored by stop()) kills the process the default way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		if !*quiet {
			logger.Info("listening", "addr", *addr)
		}
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		r.Close(context.Background())
		fatal(err)
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second ^C force-exits
	if !*quiet {
		logger.Info("draining (send the signal again to force exit)")
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Stop admitting (server-level 503s) and let the tail finish, then
	// stop the listener, then close the KB so the close-time checkpoint
	// covers everything acknowledged.
	if err := srv.Drain(shutdownCtx); err != nil {
		logger.Error("drain failed", "err", err)
	}
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("http shutdown failed", "err", err)
	}
	if err := cmdutil.CloseBounded(r, *drainTimeout); err != nil {
		fatal(fmt.Errorf("close: %w", err))
	}
	if !*quiet {
		logger.Info("clean shutdown")
	}
}

// newLogger builds the daemon's stderr logger: human-readable text by
// default, JSON when asked (for log shippers).
func newLogger(jsonOut bool) *slog.Logger {
	if jsonOut {
		return slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	return slog.New(slog.NewTextHandler(os.Stderr, nil))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sliderd:", err)
	os.Exit(1)
}
