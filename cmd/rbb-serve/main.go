// Command rbb-serve is the long-running run service: it multiplexes many
// concurrent sharded balls-into-bins simulations over a bounded worker
// budget and exposes submission, streaming observers, results and
// cancellation over HTTP/JSON (see internal/serve for the API).
//
// With -data set, every run state transition persists and rbb runs write
// periodic binary checkpoints. SIGTERM/SIGINT trigger snapshot-and-stop:
// in-flight runs checkpoint at their next round boundary and a restarted
// server picks them back up byte-identically.
//
// Examples:
//
//	rbb-serve -addr :8080 -data /var/lib/rbb -workers 4
//	curl -s localhost:8080/v1/runs -d '{"seed":1,"n":1048576,"rounds":2000,"shards":8,"quantiles":[0.5,0.99]}'
//	curl -s localhost:8080/v1/runs/r000001/stream
//	curl -s localhost:8080/v1/runs/r000001/result
//	curl -s localhost:8080/metrics
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/shard/transport/tcp"
)

func main() {
	// Runs placed on a tcp transport with no hosts re-execute this binary
	// as their workers; such a child never reaches the CLI — it runs the
	// exchange protocol on its socket and exits inside MaybeWorker.
	tcp.MaybeWorker()
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "rbb-serve:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("rbb-serve", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", "localhost:8080", "listen address")
		workers    = fs.Int("workers", 0, "concurrent run budget (0 = GOMAXPROCS)")
		runWorkers = fs.Int("run-workers", 0, "phase worker goroutines per run (0 = GOMAXPROCS; never affects trajectories)")
		dataDir    = fs.String("data", "", "data directory for the run manifest and checkpoints (empty = in-memory, no restart story)")
		ckptEvery  = fs.Int64("checkpoint-every", 0, "default periodic checkpoint period in rounds for rbb runs (0 = only on shutdown, on demand, and at completion)")
		maxQueue   = fs.Int("max-queue", 0, "maximum queued runs before submissions get 503 (0 = 256)")
		maxHistory = fs.Int("max-history", 0, "terminal runs retained before the oldest are garbage-collected with their checkpoints (0 = unlimited)")
		ttl        = fs.Duration("ttl", 0, "terminal runs are garbage-collected this long after finishing (0 = never)")
		logFormat  = fs.String("log-format", "text", "log format: text or json")
		pprofOn    = fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		version    = fs.Bool("version", false, "print build info and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Println("rbb-serve", obs.Build())
		return nil
	}
	if *ckptEvery < 0 {
		return fmt.Errorf("need checkpoint-every >= 0, got %d", *ckptEvery)
	}
	if *maxHistory < 0 {
		return fmt.Errorf("need max-history >= 0, got %d", *maxHistory)
	}
	if *ttl < 0 {
		return fmt.Errorf("need ttl >= 0, got %v", *ttl)
	}
	var handler slog.Handler
	switch *logFormat {
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	default:
		return fmt.Errorf("unknown log-format %q (want text|json)", *logFormat)
	}
	logger := slog.New(handler)

	s, err := serve.New(serve.Options{
		Workers:         *workers,
		RunWorkers:      *runWorkers,
		MaxQueue:        *maxQueue,
		Dir:             *dataDir,
		CheckpointEvery: *ckptEvery,
		MaxHistory:      *maxHistory,
		TTL:             *ttl,
		Logger:          logger,
		Pprof:           *pprofOn,
	})
	if err != nil {
		return err
	}

	// The same snapshot-and-stop context rbb-sim uses: the first signal
	// starts the graceful path, a second one kills the process the
	// OS-default way.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: s.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	logger.Info("listening", "addr", ln.Addr().String(), "workers", *workers,
		"data", *dataDir, "revision", obs.Build().Revision)

	select {
	case err := <-serveErr:
		s.Shutdown()
		return err
	case <-ctx.Done():
	}
	// Restore default signal disposition immediately so a second SIGTERM/
	// Ctrl-C during a slow shutdown kills the process the OS way.
	stop()
	logger.Info("signal received; snapshotting in-flight runs")
	// Drain the scheduler first: each in-flight run snapshots and stops at
	// its next round boundary, which also ends its stream connections —
	// only then can the HTTP server shut down without waiting them out.
	// Streams of still-queued runs never end on their own; the timeout
	// cuts those.
	s.Shutdown()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Error("http shutdown", "err", err)
	}
	logger.Info("stopped")
	return nil
}
