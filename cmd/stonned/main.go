// Command stonned is the simulation-as-a-service daemon: a long-running
// HTTP server that accepts simulation jobs as JSON, executes them on the
// simulator with bounded concurrency, and memoizes results in a
// content-addressed cache — repeated jobs replay byte-identical results
// without re-running the kernel.
//
//	stonned -addr :9444 -workers 8 -queue 64 -cache-entries 4096 -cache-dir /var/lib/stonned
//
//	curl -s localhost:9444/jobs -d '{"op":"gemm","arch":"maeri","ms":64,"bw":16,"m":32,"n":32,"k":64,"seed":1}'
//
// With -cache-dir the result cache is backed by a persistent disk tier:
// jobkey content addresses are stable across processes, so a restarted
// daemon serves repeats of anything a previous process computed warm and
// byte-identical.
//
// Endpoints: POST /jobs, GET /stats, GET /archs, GET /progress,
// GET /healthz. SIGINT/SIGTERM drain in-flight jobs and exit cleanly.
// Arrival traces are replayed by stonnetrace, against a running daemon
// (-addr) or an in-process one.
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
	"syscall"
	"time"

	"repro/internal/serve"
)

func main() {
	addr := flag.String("addr", ":9444", "listen address")
	workers := flag.Int("workers", 0, "concurrent simulation jobs (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 64, "admitted jobs waiting for a worker beyond the executing ones (more get 429)")
	cacheEntries := flag.Int("cache-entries", 0, "result cache bound (0 = default)")
	cacheDir := flag.String("cache-dir", "", "persist cached results here; restarts serve repeats warm (empty = memory only)")
	diskEntries := flag.Int("disk-entries", 0, "persistent cache entry bound (0 = default)")
	drain := flag.Duration("drain", 30*time.Second, "shutdown grace period for in-flight jobs")
	flag.Parse()

	srv, err := serve.New(serve.Config{
		Workers:      *workers,
		QueueDepth:   *queue,
		CacheEntries: *cacheEntries,
		CacheDir:     *cacheDir,
		DiskEntries:  *diskEntries,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "stonned:", err)
		os.Exit(1)
	}
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	// Bind before announcing: a bind failure is reported as one, and with
	// port 0 the line names the port the kernel chose.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stonned:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "stonned: listening on %s\n", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	select {
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "stonned: shutting down")
		shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := httpSrv.Shutdown(shutCtx); err != nil {
			fmt.Fprintln(os.Stderr, "stonned: shutdown:", err)
			os.Exit(1)
		}
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "stonned:", err)
			os.Exit(1)
		}
	}
}
