// Command flagdispd is the sweep fabric's dispatcher: it owns a durable,
// crash-recoverable job queue and a disk-backed content-addressed result
// store, serves POST /v1/run and POST /v1/sweep through the same front
// end as flagsimd (wire DTOs, status codes, X-Run-ID, GET /v1/runs and
// their traces, which ?trace=chrome and /v1/runs/{id}/trace draw from
// one in-process run of the spec at a time), and farms the work out to
// flagworkd workers over expiring leases. Results the
// store already holds are served warm without touching the fleet;
// everything else is journaled durably before the enqueue is
// acknowledged, so a kill -9 at any moment loses no accepted work.
//
// Usage:
//
//	flagdispd -data-dir /var/lib/flagdisp           # required
//	flagdispd -addr :9090 -lease-ttl 10s
//	flagdispd -replay traffic.fswl                  # pre-enqueue a captured
//	                                                # workload trace's requests
//	flagdispd -log-level debug -log-format json
//
// GET /healthz reports liveness, GET /v1/queue the queue/store/roster
// view, GET /metrics the flagsim_dist_* Prometheus families (including
// per-worker federated gauges and job phase histograms). GET /v1/jobs
// lists recent job lifecycle timelines, GET /v1/jobs/{key} one job's
// timeline, and GET /v1/jobs/{key}/trace its stitched fleet-wide Chrome
// trace (dispatcher lifecycle lane + the job's engine lane, replayed
// from its spec); the ring behind them is bounded by -job-ring.
//
// The daemon drains gracefully on SIGINT/SIGTERM. Worker leases are
// volatile: a restart requeues whatever was in flight, which is always
// safe because jobs are pure and content-addressed.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"flagsim/internal/dist"
	"flagsim/internal/obs"
)

func main() {
	var (
		addr      = flag.String("addr", ":9090", "listen address")
		dataDir   = flag.String("data-dir", "", "durable state directory: queue journal, snapshot, result store (required)")
		leaseTTL  = flag.Duration("lease-ttl", 10*time.Second, "default worker lease duration")
		maxSpecs  = flag.Int("max-sweep-specs", 4096, "largest grid one /v1/sweep request may expand to")
		jobRing   = flag.Int("job-ring", 256, "job lifecycle timelines kept for /v1/jobs and /v1/jobs/{key}/trace")
		drain     = flag.Duration("drain-timeout", 10*time.Second, "graceful shutdown budget for in-flight requests")
		replay    = flag.String("replay", "", "admission-replay this captured workload trace (.fswl) into the queue at startup")
		logLevel  = flag.String("log-level", "info", "minimum log severity: debug, info, warn, error")
		logFormat = flag.String("log-format", "text", "structured log encoding: text or json")
	)
	flag.Parse()

	if *dataDir == "" {
		fmt.Fprintln(os.Stderr, "flagdispd: -data-dir is required")
		os.Exit(2)
	}
	logger, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flagdispd:", err)
		os.Exit(2)
	}

	d, err := dist.NewDispatcher(dist.DispatcherConfig{
		DataDir:       *dataDir,
		LeaseTTL:      *leaseTTL,
		MaxSweepSpecs: *maxSpecs,
		JobRingSize:   *jobRing,
		DrainTimeout:  *drain,
		Logger:        logger,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "flagdispd:", err)
		os.Exit(1)
	}
	qs := d.Queue().Stats()
	if qs.Recovered > 0 {
		log.Printf("flagdispd: recovered %d outstanding jobs from %s", qs.Recovered, *dataDir)
	}

	if *replay != "" {
		added, deduped, skipped, err := d.ReplayTrace(*replay)
		if err != nil {
			fmt.Fprintln(os.Stderr, "flagdispd: replay:", err)
			os.Exit(1)
		}
		log.Printf("flagdispd: replayed %s: %d jobs enqueued, %d already known, %d records skipped",
			*replay, added, deduped, skipped)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Bind here rather than inside the dispatcher so ":0" logs the port
	// the kernel actually chose — smoke tests and scripts scrape this.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flagdispd:", err)
		os.Exit(1)
	}
	log.Printf("flagdispd: listening on %s (data dir %s)", ln.Addr(), *dataDir)
	if err := d.Serve(ctx, ln); err != nil {
		fmt.Fprintln(os.Stderr, "flagdispd:", err)
		os.Exit(1)
	}
	if err := d.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "flagdispd:", err)
		os.Exit(1)
	}
	log.Printf("flagdispd: drained cleanly")
}
