package workload

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// flatSchedule builds n arrivals evenly spaced over dur, all plain runs.
func flatSchedule(n int, dur time.Duration) *Schedule {
	s := &Schedule{Seed: 1, Shape: "test", Duration: dur}
	for i := 0; i < n; i++ {
		s.Arrivals = append(s.Arrivals, Arrival{
			At: dur * time.Duration(i) / time.Duration(n),
			Req: Request{Kind: KindRun, Method: http.MethodPost, Path: "/v1/run",
				Body: []byte(`{"w":4,"h":4}`)},
		})
	}
	return s
}

func TestFireDoesNotWaitForResponses(t *testing.T) {
	// A 150ms handler and 12 AFAP arrivals: a closed loop would need
	// ~1.8s; an open loop overlaps them and finishes in a few handler
	// times. MaxInFlight is the direct witness of the overlap.
	const n, delay = 12, 150 * time.Millisecond
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(delay)
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()

	start := time.Now()
	_, rep, err := Fire(context.Background(), flatSchedule(n, time.Millisecond), RunnerConfig{Target: ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start)
	if wall > time.Duration(n)*delay/2 {
		t.Fatalf("wall %v for %d x %v requests: generator is waiting for responses", wall, n, delay)
	}
	if rep.MaxInFlight < 2 {
		t.Fatalf("max in-flight %d; open loop never overlapped requests", rep.MaxInFlight)
	}
	if rep.Offered != n || rep.ByCode["200"] != n {
		t.Fatalf("offered %d by_code %v, want all %d OK", rep.Offered, rep.ByCode, n)
	}
}

func TestFireSpeedScalesSchedule(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()

	sched := flatSchedule(8, 800*time.Millisecond)
	// Speed 4 compresses the 800ms schedule to ~200ms of firing.
	start := time.Now()
	_, _, err := Fire(context.Background(), sched, RunnerConfig{Target: ts.URL, Speed: 4})
	if err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start)
	if wall < 150*time.Millisecond {
		t.Fatalf("wall %v: speed 4 should still pace the last arrival to ~175ms", wall)
	}
	if wall > 700*time.Millisecond {
		t.Fatalf("wall %v: speed 4 did not compress the 800ms schedule", wall)
	}
}

func TestFireRecordsScheduledOffsets(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()

	sched := flatSchedule(10, time.Second)
	tr, _, err := Fire(context.Background(), sched, RunnerConfig{Target: ts.URL}) // AFAP
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Records {
		if tr.Records[i].At != sched.Arrivals[i].At {
			t.Fatalf("record %d offset %v, schedule says %v: trace lost the temporal shape",
				i, tr.Records[i].At, sched.Arrivals[i].At)
		}
	}
}

func TestFireCancelTruncates(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()

	sched := flatSchedule(1000, 10*time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	tr, rep, err := Fire(ctx, sched, RunnerConfig{Target: ts.URL, Speed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Records) == 0 || len(tr.Records) >= 1000 {
		t.Fatalf("fired %d of 1000; cancellation should truncate mid-schedule", len(tr.Records))
	}
	// Everything that fired must have been awaited and recorded.
	for i := range tr.Records {
		if tr.Records[i].Status == 0 && tr.Records[i].Latency == 0 {
			t.Fatalf("record %d incomplete after cancel", i)
		}
	}
	if rep.Offered != len(tr.Records) {
		t.Fatalf("report offered %d, trace has %d", rep.Offered, len(tr.Records))
	}
}

func TestFireObservesResponses(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Probe", "yes")
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()

	var mu sync.Mutex
	seen := make(map[int]string)
	const n = 9
	_, _, err := Fire(context.Background(), flatSchedule(n, time.Millisecond), RunnerConfig{
		Target: ts.URL,
		Observe: func(i, status int, h http.Header) {
			mu.Lock()
			seen[i] = h.Get("X-Probe")
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != n {
		t.Fatalf("observe hook saw %d requests, want %d", len(seen), n)
	}
	for i, v := range seen {
		if v != "yes" {
			t.Fatalf("observe hook for request %d missed response headers", i)
		}
	}
}

func TestFireTransportErrorRecordsStatusZero(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	ts.Close() // nothing is listening
	tr, rep, err := Fire(context.Background(), flatSchedule(3, time.Millisecond), RunnerConfig{Target: ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ByCode["0"] != 3 {
		t.Fatalf("by_code %v, want 3 transport errors", rep.ByCode)
	}
	for i := range tr.Records {
		if tr.Records[i].Status != 0 {
			t.Fatalf("record %d status %d, want 0", i, tr.Records[i].Status)
		}
	}
}
