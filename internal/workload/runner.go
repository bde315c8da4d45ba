package workload

// The open-loop runner. Fire walks the schedule on one goroutine,
// sleeping until each arrival's instant and then launching the request
// on its own goroutine — it never waits for a response before firing the
// next request, and it never bounds how many are outstanding. That
// no-feedback property is the whole design: offered load is a function
// of the schedule alone, so saturation shows up in the measurements
// (latency cliffs, 429 storms, unbounded in-flight) instead of silently
// throttling the generator.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// RunnerConfig parameterizes one open-loop firing of a schedule.
type RunnerConfig struct {
	// Target is the base URL of the service under load.
	Target string
	// Client issues the requests; nil uses a transport tuned for many
	// concurrent connections to one host and no client-side timeout
	// (an open loop must observe slow responses, not abort them).
	Client *http.Client
	// Speed compresses schedule time: 2 fires a 10s schedule in 5s.
	// 0 or negative fires as fast as possible (every offset is due
	// immediately) — the mode determinism tests use.
	Speed float64
	// Observe, when non-nil, is called once per completed request with
	// the arrival index and response metadata — the seam tests use to
	// assert on headers (Retry-After) without widening the trace format.
	Observe func(i int, status int, header http.Header)
}

// DefaultClient returns an http.Client suited to open-loop load: no
// overall timeout and an idle-connection pool deep enough that ramping
// in-flight does not serialize on two reusable connections per host.
func DefaultClient() *http.Client {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConns = 1024
	t.MaxIdleConnsPerHost = 1024
	return &http.Client{Transport: t}
}

// Report summarizes one firing of a schedule.
type Report struct {
	// Offered is how many requests fired; Wall is first-fire to
	// last-completion.
	Offered int           `json:"offered"`
	Wall    time.Duration `json:"wall_ns"`
	// OfferedQPS is the schedule's intended rate, GoodputQPS the
	// observed 200-completion rate over the wall time.
	OfferedQPS float64 `json:"offered_qps"`
	GoodputQPS float64 `json:"goodput_qps"`
	// ByCode counts responses by status ("0" is a transport error).
	ByCode map[string]int `json:"by_code"`
	// P50..Max profile the latency of HTTP 200 responses.
	P50 time.Duration `json:"p50_ns"`
	P90 time.Duration `json:"p90_ns"`
	P99 time.Duration `json:"p99_ns"`
	Max time.Duration `json:"max_ns"`
	// MaxInFlight is the generator-observed concurrency high-water.
	MaxInFlight int `json:"max_in_flight"`
	// FireLagP99 is how late requests fired vs their schedule — the
	// generator's own health check (a large value means the open loop
	// degraded into a closed one and the trial is suspect).
	FireLagP99 time.Duration `json:"fire_lag_p99_ns"`
}

// okRate returns the fraction of offered requests answered 200.
func (r *Report) okRate() float64 {
	if r.Offered == 0 {
		return 0
	}
	return float64(r.ByCode["200"]) / float64(r.Offered)
}

// Fire executes the schedule open-loop against cfg.Target and returns
// the trace of every exchange (in schedule order) plus a summary report.
// ctx cancels the remainder of the schedule; requests already in flight
// are still awaited so the returned trace is complete for everything
// that fired. The returned trace's records carry the *scheduled* offsets,
// so capturing and replaying a firing preserves its temporal shape
// exactly, independent of Speed.
func Fire(ctx context.Context, sched *Schedule, cfg RunnerConfig) (*Trace, *Report, error) {
	if len(sched.Arrivals) == 0 {
		return nil, nil, fmt.Errorf("workload: empty schedule")
	}
	client := cfg.Client
	if client == nil {
		client = DefaultClient()
	}
	base := strings.TrimRight(cfg.Target, "/")
	recs := make([]Record, len(sched.Arrivals))
	lags := make([]time.Duration, 0, len(sched.Arrivals))
	var wg sync.WaitGroup
	var inFlight, maxInFlight int64
	var mu sync.Mutex // guards inFlight/maxInFlight and lags

	start := time.Now()
	fired := len(sched.Arrivals)
	for i, a := range sched.Arrivals {
		due := start
		if cfg.Speed > 0 {
			due = start.Add(time.Duration(float64(a.At) / cfg.Speed))
			if wait := time.Until(due); wait > 0 {
				t := time.NewTimer(wait)
				select {
				case <-t.C:
				case <-ctx.Done():
					t.Stop()
				}
			}
		}
		if ctx.Err() != nil {
			// Truncation of recs waits until after wg.Wait(): in-flight
			// goroutines index the slice, so the header must not change
			// under them.
			fired = i
			break
		}
		lag := time.Since(due)
		mu.Lock()
		lags = append(lags, lag)
		inFlight++
		if inFlight > maxInFlight {
			maxInFlight = inFlight
		}
		mu.Unlock()
		fireAt := time.Now()
		wg.Add(1)
		go func(i int, a Arrival) {
			defer wg.Done()
			rec := &recs[i]
			rec.At, rec.Kind, rec.Method, rec.Path, rec.Body = a.At, a.Req.Kind, a.Req.Method, a.Req.Path, a.Req.Body
			status, header, resp := doRequest(ctx, client, base, a.Req)
			rec.Latency = time.Since(fireAt)
			rec.Status = status
			rec.Resp = resp
			mu.Lock()
			inFlight--
			mu.Unlock()
			if cfg.Observe != nil {
				cfg.Observe(i, status, header)
			}
		}(i, a)
	}
	wg.Wait()
	wall := time.Since(start)
	recs = recs[:fired]

	tr := &Trace{Records: recs}
	rep := summarize(tr, wall, sched.OfferedQPS())
	rep.MaxInFlight = int(maxInFlight)
	if len(lags) > 0 {
		sort.Slice(lags, func(i, j int) bool { return lags[i] < lags[j] })
		rep.FireLagP99 = pctDuration(lags, 99)
	}
	return tr, rep, nil
}

// doRequest issues one exchange. Transport failures record status 0.
func doRequest(ctx context.Context, client *http.Client, base string, req Request) (int, http.Header, []byte) {
	hreq, err := http.NewRequestWithContext(ctx, req.Method, base+req.Path, bytes.NewReader(req.Body))
	if err != nil {
		return 0, nil, nil
	}
	if len(req.Body) > 0 {
		hreq.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(hreq)
	if err != nil {
		return 0, nil, nil
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, resp.Header, nil
	}
	return resp.StatusCode, resp.Header, body
}

// summarize computes a Report from a trace's records.
func summarize(tr *Trace, wall time.Duration, offeredQPS float64) *Report {
	rep := &Report{
		Offered:    len(tr.Records),
		Wall:       wall,
		OfferedQPS: offeredQPS,
		ByCode:     make(map[string]int),
	}
	var oks []time.Duration
	for i := range tr.Records {
		r := &tr.Records[i]
		rep.ByCode[strconv.Itoa(r.Status)]++
		if r.Status == http.StatusOK {
			oks = append(oks, r.Latency)
		}
	}
	if wall > 0 {
		rep.GoodputQPS = float64(rep.ByCode["200"]) / wall.Seconds()
	}
	if len(oks) > 0 {
		sort.Slice(oks, func(i, j int) bool { return oks[i] < oks[j] })
		rep.P50 = pctDuration(oks, 50)
		rep.P90 = pctDuration(oks, 90)
		rep.P99 = pctDuration(oks, 99)
		rep.Max = oks[len(oks)-1]
	}
	return rep
}

// pctDuration reads the p-th percentile from sorted durations.
func pctDuration(sorted []time.Duration, p int) time.Duration {
	idx := len(sorted) * p / 100
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
