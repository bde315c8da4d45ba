package obs

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func tlKey(i int) string { return fmt.Sprintf("%064d", i) }

func TestJobRingEvictionOrder(t *testing.T) {
	r := NewRing[JobTimeline](3)
	base := time.Unix(1000, 0)
	for i := 0; i < 5; i++ {
		r.Insert(JobTimeline{Key: tlKey(i), Enqueued: base.Add(time.Duration(i) * time.Second)})
	}
	if r.Len() != 3 {
		t.Fatalf("ring holds %d, want capacity 3", r.Len())
	}
	// Oldest two (0, 1) evicted; 2..4 resident, newest first in List.
	for i := 0; i < 2; i++ {
		if _, ok := r.Get(tlKey(i)); ok {
			t.Fatalf("evicted key %d still resident", i)
		}
		if r.Update(tlKey(i), func(*JobTimeline) {}) {
			t.Fatalf("update of evicted key %d succeeded", i)
		}
	}
	list := r.List()
	for i, want := range []string{tlKey(4), tlKey(3), tlKey(2)} {
		if list[i].Key != want {
			t.Fatalf("List[%d] = %q, want %q (newest first)", i, list[i].Key, want)
		}
	}
}

func TestJobRingFirstBeginWins(t *testing.T) {
	r := NewRing[JobTimeline](4)
	first := time.Unix(500, 0)
	r.Insert(JobTimeline{Key: tlKey(7), RunID: "aaaaaaaaaaaaaaaa", Enqueued: first})
	// A dedup'd resubmission must not reset the live timeline.
	r.Insert(JobTimeline{Key: tlKey(7), RunID: "bbbbbbbbbbbbbbbb", Enqueued: first.Add(time.Hour)})
	got, ok := r.Get(tlKey(7))
	if !ok || got.RunID != "aaaaaaaaaaaaaaaa" || !got.Enqueued.Equal(first) {
		t.Fatalf("resubmission reset the timeline: %+v", got)
	}
}

func TestJobRingPhaseMonotonicity(t *testing.T) {
	base := time.Unix(2000, 0)
	tl := JobTimeline{
		Key:      tlKey(1),
		Enqueued: base,
		Leased:   base.Add(30 * time.Millisecond),
		Reported: base.Add(130 * time.Millisecond),
		Stored:   base.Add(140 * time.Millisecond),
	}
	qw, ok1 := tl.QueueWait()
	cp, ok2 := tl.Compute()
	st, ok3 := tl.Store()
	e2e, ok4 := tl.EndToEnd()
	if !ok1 || !ok2 || !ok3 || !ok4 {
		t.Fatal("fully stamped timeline must yield every phase")
	}
	// The phases partition the lifecycle: they sum exactly to end-to-end,
	// so in particular queue_wait + compute <= end_to_end.
	if qw+cp+st != e2e {
		t.Fatalf("phases %v+%v+%v != end-to-end %v", qw, cp, st, e2e)
	}
	if !tl.Done() {
		t.Fatal("stored timeline must report done")
	}

	// Partial lifecycles yield only the phases whose bounds exist.
	part := JobTimeline{Key: tlKey(2), Enqueued: base, Leased: base.Add(time.Millisecond)}
	if _, ok := part.Compute(); ok {
		t.Fatal("compute without a report timestamp")
	}
	if _, ok := part.EndToEnd(); ok || part.Done() {
		t.Fatal("unstored job is not done")
	}
	if d, ok := part.QueueWait(); !ok || d != time.Millisecond {
		t.Fatalf("queue wait = %v %v", d, ok)
	}
}

// TestJobRingConcurrent hammers Begin/Update/Get/List from many
// goroutines; run under -race this pins the locking discipline the
// dispatcher's report path relies on.
func TestJobRingConcurrent(t *testing.T) {
	r := NewRing[JobTimeline](64)
	base := time.Unix(3000, 0)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := tlKey(w*200 + i)
				r.Insert(JobTimeline{Key: key, Enqueued: base})
				r.Update(key, func(t *JobTimeline) {
					t.Leased = base.Add(time.Millisecond)
					t.Leases++
				})
				r.Update(key, func(t *JobTimeline) {
					t.Reported = base.Add(2 * time.Millisecond)
					t.Stored = base.Add(3 * time.Millisecond)
				})
				if tl, ok := r.Get(key); ok && tl.Key != key {
					t.Errorf("Get(%q) returned timeline for %q", key, tl.Key)
				}
				r.List()
			}
		}(w)
	}
	wg.Wait()
	if r.Len() != 64 {
		t.Fatalf("ring holds %d, want full capacity 64", r.Len())
	}
	// Every resident timeline must be internally consistent (no torn
	// writes): a stored timeline has every earlier stamp.
	for _, tl := range r.List() {
		if tl.Done() && (tl.Leased.IsZero() || tl.Reported.IsZero()) {
			t.Fatalf("torn timeline: %+v", tl)
		}
	}
}
