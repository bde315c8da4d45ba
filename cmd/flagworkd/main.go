// Command flagworkd is the sweep fabric's worker: it registers with a
// flagdispd dispatcher, leases jobs under heartbeat-renewed leases,
// executes them one at a time on a local sweep pool, and reports the
// canonical result bytes back. Run more workers for more concurrency. Killing a worker at any moment — even kill -9 mid-job —
// loses nothing: the lease expires and the dispatcher requeues the job.
// A worker keeps nothing on disk: the dispatcher's result store holds
// every result, and a restarted worker starts with an empty memo.
//
// Usage:
//
//	flagworkd -dispatcher http://localhost:9090
//	flagworkd -name rack3-7
//	flagworkd -metrics-addr 127.0.0.1:9101     # flagsim_dist_worker_* families
//
// Every job runs on the engine's fast path and its report carries the
// result bytes alone: the dispatcher draws a job's engine trace by
// replaying its spec. The worker's own counters piggyback on every
// lease/renew call, making one scrape of the dispatcher's /metrics
// cover the whole fleet.
//
// The worker exits cleanly on SIGINT/SIGTERM; an in-flight job is
// abandoned to lease expiry (safe — jobs are pure and content-addressed).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"flagsim/internal/dist"
	"flagsim/internal/obs"
)

func main() {
	var (
		dispatcher  = flag.String("dispatcher", "http://localhost:9090", "flagdispd base URL")
		name        = flag.String("name", "", "worker label on the dispatcher (default host:pid)")
		leaseTTL    = flag.Duration("lease-ttl", 10*time.Second, "lease duration requested per job")
		poll        = flag.Duration("poll", 200*time.Millisecond, "idle sleep between empty lease calls")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics on this address (empty = disabled)")
		logLevel    = flag.String("log-level", "info", "minimum log severity: debug, info, warn, error")
		logFormat   = flag.String("log-format", "text", "structured log encoding: text or json")
	)
	flag.Parse()

	logger, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flagworkd:", err)
		os.Exit(2)
	}
	if *name == "" {
		host, _ := os.Hostname()
		*name = fmt.Sprintf("%s:%d", host, os.Getpid())
	}

	w := dist.NewWorker(dist.WorkerConfig{
		Dispatcher:   *dispatcher,
		Name:         *name,
		LeaseTTL:     *leaseTTL,
		PollInterval: *poll,
		Logger:       logger,
	})

	if *metricsAddr != "" {
		reg := obs.NewRegistry()
		obs.RegisterDistWorker(reg, w.Stats)
		obs.RegisterGoRuntime(reg)
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", func(rw http.ResponseWriter, r *http.Request) {
			rw.Header().Set("Content-Type", obs.ContentType)
			reg.WriteText(rw)
		})
		go func() {
			log.Printf("flagworkd: metrics listening on %s", *metricsAddr)
			if err := http.ListenAndServe(*metricsAddr, mux); err != nil {
				log.Printf("flagworkd: metrics listener failed: %v", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	log.Printf("flagworkd: %s serving %s", *name, *dispatcher)
	if err := w.Run(ctx); err != nil && ctx.Err() == nil {
		fmt.Fprintln(os.Stderr, "flagworkd:", err)
		os.Exit(1)
	}
	log.Printf("flagworkd: stopped cleanly")
}
