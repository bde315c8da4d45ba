package main

// Tracing from outside the program: spans recorded by the benchmark's
// own wrappers around each layer's public entry points — the closed-loop
// client, an http.Handler around the server's or dispatcher's Handler(),
// a RoundTripper in the workers' HTTP client, and the replays. Spans
// stay in memory and are written once, at exit, as a Chrome trace
// through obs.TraceBuilder.

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"flagsim/internal/obs"
)

// spanHeader carries the caller's span id to the handler wrapper, so a
// handler span becomes the child of the client or worker span that sent
// the request. Only traced rounds set it.
const spanHeader = "X-E2ebench-Span"

// Chrome trace lanes (pids).
const (
	laneClient = 1 + iota
	laneHandler
	laneWorker
	laneReplay
)

var laneNames = map[int]string{
	laneClient:  "e2ebench clients",
	laneHandler: "handler (server or dispatcher)",
	laneWorker:  "worker transport",
	laneReplay:  "layer replay",
}

// span is one timed call. Root spans carry their lane and thread;
// children inherit both from their root when the trace is rendered.
type span struct {
	id, parent uint64
	name       string
	start, end time.Duration // since the tracer's epoch
	lane, tid  int
	status     int   // HTTP status, where the span is an HTTP call
	bytes      int64 // request body bytes of a worker call
	runs       int   // simulation results a client request delivered
}

func (s span) dur() time.Duration { return s.end - s.start }

// tracer collects spans from any goroutine.
type tracer struct {
	epoch time.Time
	next  atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) newID() uint64 { return t.next.Add(1) }

func (t *tracer) since(at time.Time) time.Duration { return at.Sub(t.epoch) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// take returns the collected spans and starts a fresh collection.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// wrap times every request h serves as a child of the span named in the
// request's spanHeader.
func (t *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		start := time.Now()
		h.ServeHTTP(w, r)
		t.add(span{
			id: t.newID(), parent: parent, name: "handler " + r.URL.Path,
			start: t.since(start), end: t.since(time.Now()), lane: laneHandler,
		})
	})
}

// transport times a worker's calls to the dispatcher, from sending the
// request to closing the response body.
type transport struct {
	t    *tracer
	tid  int
	base http.RoundTripper
}

func (tr *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	id := tr.t.newID()
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.FormatUint(id, 10))
	start := time.Now()
	sp := span{id: id, name: "worker " + req.URL.Path, start: tr.t.since(start),
		lane: laneWorker, tid: tr.tid, bytes: req.ContentLength}
	resp, err := tr.base.RoundTrip(req)
	if err != nil {
		sp.end = tr.t.since(time.Now())
		tr.t.add(sp)
		return nil, err
	}
	sp.status = resp.StatusCode
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func() {
		sp.end = tr.t.since(time.Now())
		tr.t.add(sp)
	}}
	return resp, nil
}

// spanBody ends its span when the caller closes the response body.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// selfTimes returns each span's duration minus the part of it that its
// children cover.
func selfTimes(spans []span) map[uint64]time.Duration {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	self := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		self[s.id] = s.dur() - covered(s, children[s.id])
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
	var total time.Duration
	curStart, curEnd := time.Duration(-1), time.Duration(-1)
	for _, k := range kids {
		s, e := max(k.start, parent.start), min(k.end, parent.end)
		if e <= s {
			continue
		}
		if s > curEnd {
			if curEnd > curStart {
				total += curEnd - curStart
			}
			curStart, curEnd = s, e
			continue
		}
		curEnd = max(curEnd, e)
	}
	if curEnd > curStart {
		total += curEnd - curStart
	}
	return total
}

// threadName labels a lane's thread: clients are threads 1..clients,
// fleet workers the threads after them.
func threadName(lane, tid int) string {
	who := fmt.Sprintf("client %d", tid)
	if tid > clients {
		who = fmt.Sprintf("worker %d", tid-clients)
	}
	switch lane {
	case laneHandler:
		return "serving " + who
	case laneReplay:
		return "replayed requests"
	}
	return who
}

// writeChromeTrace renders spans through obs.TraceBuilder. Each span's
// args carry its id, its parent and its root (the request it belongs
// to); children are drawn in their root's lane and thread.
func writeChromeTrace(path string, spans []span) error {
	byID := make(map[uint64]span, len(spans))
	for _, s := range spans {
		byID[s.id] = s
	}
	root := func(s span) span {
		for i := 0; s.parent != 0 && i < 16; i++ {
			p, ok := byID[s.parent]
			if !ok {
				break
			}
			s = p
		}
		return s
	}
	b := obs.NewTraceBuilder()
	for lane := laneClient; lane <= laneReplay; lane++ {
		b.ProcessName(lane, laneNames[lane])
	}
	named := map[[2]int]bool{}
	for _, s := range spans {
		r := root(s)
		args := map[string]string{"id": strconv.FormatUint(s.id, 10), "req": strconv.FormatUint(r.id, 10)}
		if s.parent != 0 {
			args["parent"] = strconv.FormatUint(s.parent, 10)
		}
		if s.status != 0 {
			args["status"] = strconv.Itoa(s.status)
		}
		lane := r.lane
		if s.lane == laneHandler && r.lane != laneReplay {
			lane = laneHandler // a handler span keeps its own lane, on its caller's thread
		}
		if !named[[2]int{lane, r.tid}] {
			named[[2]int{lane, r.tid}] = true
			b.ThreadName(lane, r.tid, threadName(lane, r.tid))
		}
		b.Span(lane, r.tid, s.name, "e2ebench", s.start, s.dur(), args)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := b.Render(f); err != nil {
		f.Close()
		return fmt.Errorf("write chrome trace: %w", err)
	}
	return f.Close()
}
