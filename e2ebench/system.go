package main

// One fixed-work round: build a fresh system (flagsimd's server core, or
// a dispatcher with two workers), run the untimed warm-up and the timed
// phase over closed-loop client connections with reference calls between
// the timed calls, read the counters, and tear everything down.

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"flagsim/internal/dist"
	"flagsim/internal/server"
	"flagsim/internal/sweep"
)

// clients is the number of closed-loop client connections a loop opens;
// a workload's timed phase may use fewer (workload.timedClients).
const clients = 2

// fleetWorkers is the number of dist.Workers in a fleet.
const fleetWorkers = 2

// requestTimeout bounds one call, so a wedged system fails the run
// instead of hanging it.
const requestTimeout = 60 * time.Second

// system is one round's program under test, served on a loopback port.
type system struct {
	srv  *server.Server
	disp *dist.Dispatcher
	dir  string

	hs     *http.Server
	served chan error
	base   string

	mu          sync.Mutex
	workers     []*dist.Worker
	stopWorkers context.CancelFunc
	workersDone sync.WaitGroup

	closeOnce sync.Once
	closeErr  error
}

// startSystem builds and serves a fresh system. A traced round wraps the
// handler so every request it serves is timed.
func startSystem(w *workload, dataDir string, round int, tr *tracer) (*system, error) {
	s := &system{served: make(chan error, 1)}
	var h http.Handler
	if w.fleet {
		s.dir = filepath.Join(dataDir, "round-"+strconv.Itoa(round))
		if err := os.RemoveAll(s.dir); err != nil {
			return nil, err
		}
		d, err := dist.NewDispatcher(dist.DispatcherConfig{DataDir: s.dir})
		if err != nil {
			return nil, fmt.Errorf("open dispatcher: %w", err)
		}
		s.disp, h = d, d.Handler()
	} else {
		s.srv = server.New(server.Config{})
		h = s.srv.Handler()
	}
	if tr != nil {
		h = tr.wrap(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: h}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// startWorkers starts the fleet's workers with flagworkd's defaults: one
// job at a time, a 200 ms idle poll and span traces on reports. A traced
// round times their calls through the client's RoundTripper.
func (s *system) startWorkers(tr *tracer) {
	ctx, cancel := context.WithCancel(context.Background())
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stopWorkers = cancel
	for i := 0; i < fleetWorkers; i++ {
		cfg := dist.WorkerConfig{Dispatcher: s.base, Name: "e2ebench-" + strconv.Itoa(i+1)}
		if tr != nil {
			cfg.Client = &http.Client{Timeout: 30 * time.Second,
				Transport: &transport{t: tr, tid: clients + i + 1, base: http.DefaultTransport}}
		}
		wk := dist.NewWorker(cfg)
		s.workers = append(s.workers, wk)
		s.workersDone.Add(1)
		go func() {
			defer s.workersDone.Done()
			_ = wk.Run(ctx) // returns nil once ctx is canceled
		}()
	}
}

// memo sums the cache statistics of every sweep pool in the system: the
// server's, or each worker's.
func (s *system) memo() sweep.CacheStats {
	if s.srv != nil {
		return s.srv.Sweeper().Stats()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var out sweep.CacheStats
	for _, wk := range s.workers {
		st := wk.Sweeper().Stats()
		out.Hits += st.Hits
		out.Misses += st.Misses
		out.Entries += st.Entries
	}
	return out
}

// phaseSums scrapes the dispatcher's /metrics for the _sum (seconds) and
// _count of each flagsim_dist_phase_seconds series.
func (s *system) phaseSums() map[string]acc {
	out := map[string]acc{}
	if s.disp == nil {
		return out
	}
	rec := httptest.NewRecorder()
	s.disp.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		line := sc.Text()
		name, rest, ok := strings.Cut(line, `{phase="`)
		if !ok || !strings.HasPrefix(name, "flagsim_dist_phase_seconds_") {
			continue
		}
		phase, val, ok := strings.Cut(rest, `"} `)
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		a := out[phase]
		switch strings.TrimPrefix(name, "flagsim_dist_phase_seconds_") {
		case "sum":
			a.sum = v
		case "count":
			a.n = v
		}
		out[phase] = a
	}
	return out
}

// close stops the workers, drains the HTTP server and removes the
// fleet's data directory. It is safe to call more than once.
func (s *system) close() error {
	s.closeOnce.Do(func() { s.closeErr = s.shutdown() })
	return s.closeErr
}

func (s *system) shutdown() error {
	s.mu.Lock()
	stop := s.stopWorkers
	s.mu.Unlock()
	if stop != nil {
		stop()
		s.workersDone.Wait()
	}
	var errs []error
	if s.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, s.hs.Shutdown(ctx))
		cancel()
		if err := <-s.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	if s.disp != nil {
		errs = append(errs, s.disp.Close(), os.RemoveAll(s.dir))
	}
	return errors.Join(errs...)
}

// roundResult is everything one round measured.
type roundResult struct {
	setup time.Duration // construction through warm-up to the first timed request
	wall  time.Duration // first timed request sent to last timed reply read
	// runs and requests count the timed phase; failed counts its runs
	// that failed (non-200, unparsable, row error, or rows that differ).
	runs, requests, failed int
	transportErrs          int64
	// clients is how many clients sent the timed phase. progTime sums
	// their timed calls' latencies, refTime their reference calls', of
	// which there were refCalls; refCPU is the process CPU time spent
	// while reference calls were made.
	clients                   int
	progTime, refTime, refCPU time.Duration
	refNominal                time.Duration
	// refDurs lists the reference calls' latencies in completion order;
	// refAt[i] is how many had completed when timed call i did.
	refDurs             []time.Duration
	refAt               []int
	refCalls            int
	lat                 []time.Duration
	c0, c1              counters
	heapBase, heapAfter uint64 // before the system is built; after the timed phase
	memo0, memo1        sweep.CacheStats
	phase0, phase1      map[string]acc
	storeBytes          int64
	storeEntries        int
	guard               guardTally
	violations          []string
	sweepWallNS, sweeps int64
	samples             []exchange
	spans               []span
	t0, t1              time.Duration // timed phase bounds on the tracer's clock
}

// samplesPerRound is how many timed exchanges a round keeps for local
// recomputation.
const samplesPerRound = 12

// runRound runs round r of cfg's workload. A non-nil tracer makes it a
// traced round.
func runRound(cfg *runConfig, r int, tr *tracer) (*roundResult, error) {
	w := cfg.w
	in := w.inputs(cfg.seed, r, cfg.size)
	res := &roundResult{requests: len(in.timed)}
	for _, req := range in.timed {
		res.runs += req.runs
	}
	// The round's own bookkeeping is allocated before the baseline heap
	// is read, so the heap growth over the round is the system's alone.
	chk := newChecker(w)
	res.lat = make([]time.Duration, len(in.timed))
	res.refAt = make([]int, len(in.timed))
	keep := map[int]int{} // timed index → sample slot
	srng := rand.New(rand.NewPCG(cfg.seed, uint64(r)<<8|0x5a))
	for len(keep) < min(samplesPerRound, len(in.timed)) {
		if i := srng.IntN(len(in.timed)); keep[i] == 0 {
			keep[i] = len(keep) + 1
		}
	}
	samples := make([]exchange, len(keep))
	var failed atomic.Int64
	res.heapBase = liveHeap()

	start := time.Now()
	sys, err := startSystem(w, cfg.dataDir, r, tr)
	if err != nil {
		return nil, err
	}
	defer sys.close()
	ctx := context.Background()
	if len(in.prefill) > 0 {
		if err := sys.srv.Sweeper().Run(ctx, in.prefill).Err(); err != nil {
			return nil, fmt.Errorf("pre-fill: %w", err)
		}
	}

	procs := runtime.GOMAXPROCS(0)
	onTimed := func() {
		if w.oneProc {
			runtime.GOMAXPROCS(1)
		}
		res.setup = time.Since(start)
		res.memo0 = sys.memo()
		res.phase0 = sys.phaseSums()
		res.c0 = snapshot()
		if tr != nil {
			res.t0 = tr.since(res.c0.at)
		}
	}
	timedIndex := func(i int) int { return i - len(in.warm) }
	lp := &loop{
		base: sys.base, tr: tr, ref: cfg.ref,
		done: func(i int, req request, status int, body []byte, lat time.Duration, refAt int) {
			ti := timedIndex(i)
			f := chk.check(req, status, body, ti >= 0)
			if ti < 0 {
				if f > 0 {
					chk.violate("warm-up %s failed %d of %d runs (status %d)", req.path, f, req.runs, status)
				}
				return
			}
			failed.Add(int64(f))
			res.lat[ti] = lat
			res.refAt[ti] = refAt
			if slot := keep[ti]; slot > 0 {
				samples[slot-1] = exchange{req: req, status: status, body: body}
			}
		},
	}
	defer lp.closeIdle()
	if w.fleet {
		// Start the workers only once the first warm-up sweep is queued:
		// a worker that finds the queue empty sleeps for its 200 ms idle
		// poll, which would make set-up time a coin toss.
		lp.started = func() error {
			deadline := time.Now().Add(requestTimeout)
			for sys.disp.Queue().Stats().Enqueued == 0 {
				if time.Now().After(deadline) {
					return errors.New("warm-up never reached the dispatcher queue")
				}
				time.Sleep(100 * time.Microsecond)
			}
			sys.startWorkers(tr)
			return nil
		}
	}
	if w.barrier {
		if err := lp.run(in.warm, len(in.warm), nil); err != nil {
			return nil, err
		}
		lp.started = nil
		timedIndex = func(i int) int { return i }
		lp.active = w.timedClients
		if err := lp.run(in.timed, 0, onTimed); err != nil {
			return nil, err
		}
	} else {
		lp.active = w.timedClients
		seq := append(append([]request(nil), in.warm...), in.timed...)
		if err := lp.run(seq, len(in.warm), onTimed); err != nil {
			return nil, err
		}
	}
	res.c1 = snapshot()
	runtime.GOMAXPROCS(procs)
	if n := lp.refFailed.Load(); n > 0 {
		return nil, fmt.Errorf("%d reference calls failed", n)
	}
	res.clients = w.timedClients
	res.progTime, res.refDurs = time.Duration(lp.progTime.Load()), lp.refDurs
	for _, d := range res.refDurs {
		res.refTime += d
	}
	res.refCalls = len(res.refDurs)
	res.refCPU = time.Duration(lp.refCPU.Load())
	res.refNominal = cfg.ref.size.nominal
	res.wall = res.c1.at.Sub(res.c0.at)
	if tr != nil {
		res.t1 = tr.since(res.c1.at)
	}
	res.memo1 = sys.memo()
	res.phase1 = sys.phaseSums()
	if sys.disp != nil {
		st := sys.disp.Store().Stats()
		res.storeBytes, res.storeEntries = st.Bytes, st.Entries
	}
	res.heapAfter = liveHeap()
	res.failed = int(failed.Load())
	res.transportErrs = lp.transportErrs.Load()
	res.guard = chk.guard
	res.violations = chk.violations
	res.sweepWallNS, res.sweeps = chk.sweepWallNS, chk.sweeps
	res.samples = samples
	if tr != nil {
		res.spans = tr.take()
	}
	if err := sys.close(); err != nil {
		return nil, fmt.Errorf("tear down: %w", err)
	}
	return res, nil
}

// loop drives a request sequence over the closed-loop clients: each
// client takes the next index, sends it, reads the whole reply, and only
// then takes another. In the timed phase each client follows every call
// with reference calls until its reference time reaches refShare of its
// program time.
type loop struct {
	base    string
	tr      *tracer
	clients []*http.Client
	// active, when set, sends over the first active clients only.
	active int
	// ref is called between timed calls, each client over a connection
	// of its own in refClients.
	ref        *reference
	refClients []*http.Client
	// started, when set, runs once the clients are sending.
	started func() error
	// done receives every completed call; status is 0 when the call
	// failed in transport.
	// refAt is how many reference calls had completed when the call did.
	done          func(i int, req request, status int, body []byte, lat time.Duration, refAt int)
	transportErrs atomic.Int64
	// progTime sums the timed calls' latencies over every client, in ns;
	// refDurs lists every reference call's latency in completion order;
	// refCPU sums the process CPU time while reference calls were made
	// (exact with one client).
	progTime  atomic.Int64
	refMu     sync.Mutex
	refDurs   []time.Duration
	refCPU    atomic.Int64
	refFailed atomic.Int64
}

// run sends seq. onTimed runs once, just before the first request at or
// beyond timedFrom is sent.
func (l *loop) run(seq []request, timedFrom int, onTimed func()) error {
	if l.clients == nil {
		for c := 0; c < clients; c++ {
			l.clients = append(l.clients, &http.Client{
				Timeout: requestTimeout,
				Transport: &http.Transport{
					MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
				},
			})
			l.refClients = append(l.refClients, l.ref.newClient())
		}
	}
	var (
		next atomic.Int64
		once sync.Once
		wg   sync.WaitGroup
	)
	active := l.clients
	if l.active > 0 {
		active = active[:l.active]
	}
	for c, cl := range active {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var prog, ref time.Duration // this client's timed and reference time
			for {
				i := int(next.Add(1) - 1)
				if i >= len(seq) {
					return
				}
				if i >= timedFrom && onTimed != nil {
					once.Do(onTimed)
				}
				status, body, lat, err := l.call(c, cl, seq[i])
				if err != nil {
					// A transport failure fails the call's runs like a
					// non-200 reply does.
					l.transportErrs.Add(1)
					status = 0
				}
				l.refMu.Lock()
				refAt := len(l.refDurs)
				l.refMu.Unlock()
				l.done(i, seq[i], status, body, lat, refAt)
				if i < timedFrom {
					continue
				}
				prog += lat
				l.progTime.Add(int64(lat))
				cpu0, _ := processCPU()
				for float64(ref) < refShare*float64(prog) {
					d, err := l.ref.call(l.refClients[c])
					if err != nil {
						l.refFailed.Add(1)
						break
					}
					ref += d
					l.refMu.Lock()
					l.refDurs = append(l.refDurs, d)
					l.refMu.Unlock()
				}
				cpu1, _ := processCPU()
				l.refCPU.Add(int64(cpu1 - cpu0))
			}
		}()
	}
	var err error
	if l.started != nil {
		err = l.started()
	}
	wg.Wait()
	return err
}

// closeIdle closes the clients' idle connections.
func (l *loop) closeIdle() {
	for _, cl := range append(l.clients, l.refClients...) {
		cl.CloseIdleConnections()
	}
}

// call sends one request and reads the whole reply. Latency runs from
// just before the send to the last body byte.
func (l *loop) call(c int, cl *http.Client, req request) (int, []byte, time.Duration, error) {
	hreq, err := http.NewRequest(http.MethodPost, l.base+req.path, bytes.NewReader(req.body))
	if err != nil {
		return 0, nil, 0, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	var id uint64
	if l.tr != nil {
		id = l.tr.newID()
		hreq.Header.Set(spanHeader, strconv.FormatUint(id, 10))
	}
	start := time.Now()
	resp, err := cl.Do(hreq)
	if err != nil {
		return 0, nil, time.Since(start), err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if l.tr != nil {
		l.tr.add(span{id: id, name: "client " + req.path, start: l.tr.since(start),
			end: l.tr.since(start) + lat, lane: laneClient, tid: c + 1,
			status: resp.StatusCode, runs: req.runs})
	}
	return resp.StatusCode, body, lat, err
}
