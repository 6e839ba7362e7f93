package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/server"
)

// runServe runs `nchecker serve`: the long-running HTTP scan service
// (internal/server). Structured logs go to stderr as JSON lines; SIGINT
// and SIGTERM drain the server gracefully.
func runServe(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("nchecker serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
	readyFile := fs.String("ready-file", "", "write the bound listen address to this file once serving (for scripts using -addr ...:0)")
	jobs := fs.Int("jobs", runtime.NumCPU(), "concurrent scan jobs, one goroutine each")
	queueLen := fs.Int("queue", server.DefaultQueue, "admission queue bound; a POST /scan beyond it gets 429")
	jobTimeout := fs.Duration("job-timeout", 2*time.Minute, "per-job scan deadline (0 = none); an expired deadline yields a degraded report, not an error")
	retain := fs.Int("retain", server.DefaultRetain, "finished jobs kept for GET /scan/{id}")
	maxBody := fs.Int64("max-body", server.DefaultMaxBody, "largest accepted app container in bytes")
	coordURL := fs.String("coord", "", "join the fleet at this coordinator URL: register for dispatch and replicate cache entries through its hub")
	selfURL := fs.String("self", "", "base URL the coordinator should reach this worker at (default http://<bound address>)")

	var opts core.Options
	fs.BoolVar(&opts.EnableICC, "icc", false, "enable the inter-component analysis")
	fs.BoolVar(&opts.GuardSensitiveConnCheck, "guard", false, "require connectivity checks to govern a branch")
	fs.BoolVar(&opts.Intraprocedural, "intra", false, "intraprocedural ablation")
	fs.StringVar(&opts.CacheDir, "cache", "", "persistent scan-cache directory shared by all jobs (empty = no cache)")
	cacheMode := fs.String("cache-mode", "rw", "persistent-cache mode: off, ro, or rw")
	fs.BoolVar(&opts.Validate, "validate", false, "dynamically validate warnings by default (per-job override via ?validate=)")
	checkerSel := fs.String("checkers", "all", "default checker families (per-job override via ?checkers=), e.g. 1,3,5-8")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: nchecker serve [flags]\n\nEndpoints: POST /scan, GET /scan/{id}, GET /scans, GET /metrics, GET /healthz, /debug/pprof/\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return exitError
	}
	if fs.NArg() != 0 {
		fs.Usage()
		return exitError
	}
	mode, err := core.ParseCacheMode(*cacheMode)
	if err != nil {
		fmt.Fprintf(stderr, "nchecker serve: %v\n", err)
		return exitError
	}
	opts.CacheMode = mode
	cset, err := core.ParseCheckerSet(*checkerSel)
	if err != nil {
		fmt.Fprintf(stderr, "nchecker serve: %v\n", err)
		return exitError
	}
	opts.Checkers = cset

	logger := slog.New(slog.NewJSONHandler(stderr, nil))
	srv := server.New(server.Config{
		Scan:         opts,
		Jobs:         *jobs,
		Queue:        *queueLen,
		JobTimeout:   *jobTimeout,
		MaxBodyBytes: *maxBody,
		Retain:       *retain,
		Logger:       logger,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "nchecker serve: %v\n", err)
		return exitError
	}
	bound := ln.Addr().String()
	logger.Info("serving",
		"addr", bound, "jobs", *jobs, "queue", *queueLen,
		"job_timeout", (*jobTimeout).String(), "cache", opts.CacheDir, "cache_mode", opts.CacheMode.String(),
		"validate", opts.Validate)
	if *readyFile != "" {
		if err := os.WriteFile(*readyFile, []byte(bound+"\n"), 0o644); err != nil {
			fmt.Fprintf(stderr, "nchecker serve: write -ready-file: %v\n", err)
			ln.Close()
			return exitError
		}
	}

	srv.Start()
	hs := &http.Server{Handler: srv.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	if *coordURL != "" {
		self := *selfURL
		if self == "" {
			self = "http://" + bound
		}
		// Join after the listener is up so the coordinator's first dispatch
		// finds /scansync answering. A failed join is loud but not fatal:
		// the worker still serves its own API.
		go func() {
			if err := server.JoinFleet(server.FleetJoin{Coord: *coordURL, Self: self, Logger: logger}, opts); err != nil {
				logger.Error("fleet join failed", "error", err.Error())
			}
		}()
	}

	select {
	case err := <-serveErr:
		logger.Error("server error", "error", err.Error())
		return exitError
	case <-ctx.Done():
		stop() // restore default signal handling: a second signal kills hard
		logger.Info("shutting down")
		shutCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := hs.Shutdown(shutCtx); err != nil {
			logger.Error("http shutdown", "error", err.Error())
		}
		if err := srv.Shutdown(shutCtx); err != nil {
			logger.Error("drain", "error", err.Error())
			return exitError
		}
		logger.Info("shutdown complete")
		return exitClean
	}
}
