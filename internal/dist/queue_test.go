package dist

import (
	"testing"
	"time"
)

// fakeClock is an injectable queue clock.
type fakeClock struct{ t time.Time }

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}
func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func openTestQueue(t *testing.T, dir string, store *ResultStore, clock *fakeClock) *Queue {
	t.Helper()
	q, err := OpenQueue(dir, store, clock.now)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestQueueLifecycle(t *testing.T) {
	dir := t.TempDir()
	clock := newFakeClock()
	q := openTestQueue(t, dir, nil, clock)
	defer q.Close()

	j1, j2 := testJob(t, 1), testJob(t, 2)
	added, deduped, err := q.Enqueue([]Job{j1, j2, j1})
	if err != nil {
		t.Fatal(err)
	}
	if added != 2 || deduped != 1 {
		t.Fatalf("enqueue added %d deduped %d, want 2/1", added, deduped)
	}

	leaseID, job, ok := q.Lease("w1", time.Second)
	if !ok || job.KeyHex != j1.KeyHex {
		t.Fatalf("first lease = %v %q, want j1", ok, job.KeyHex)
	}
	if key, worker, ok := q.Renew(leaseID, time.Second); !ok || key != j1.Key() || worker != "w1" {
		t.Fatalf("renew of a live lease = %x %q %v, want j1/w1/true", key, worker, ok)
	}

	done := q.DoneCh(j1.Key())
	select {
	case <-done:
		t.Fatal("done channel closed before completion")
	default:
	}
	if err := q.Complete(leaseID, j1.Key(), true, ""); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	default:
		t.Fatal("done channel not closed by completion")
	}
	if doneNow, errMsg := q.Status(j1.Key()); !doneNow || errMsg != "" {
		t.Fatalf("status after ok-complete: %v %q", doneNow, errMsg)
	}
	if _, _, ok := q.Renew(leaseID, time.Second); ok {
		t.Fatal("renew of a completed lease succeeded")
	}

	// Failed completion records its message and closes waiters too.
	leaseID2, job2, ok := q.Lease("w1", time.Second)
	if !ok || job2.KeyHex != j2.KeyHex {
		t.Fatal("second lease is not j2")
	}
	if err := q.Complete(leaseID2, j2.Key(), false, "boom"); err != nil {
		t.Fatal(err)
	}
	if _, errMsg := q.Status(j2.Key()); errMsg != "boom" {
		t.Fatalf("failed status message = %q", errMsg)
	}
	select {
	case <-q.DoneCh(j2.Key()):
	default:
		t.Fatal("DoneCh for an already-failed key must be born closed")
	}

	stats := q.Stats()
	if stats.Depth != 0 || stats.Leased != 0 || stats.Completed != 1 || stats.Failed != 1 {
		t.Fatalf("stats = %+v", stats)
	}
}

// TestQueueLeaseExpiry pins the kill -9 contract: a worker that stops
// renewing loses its lease and the job requeues for someone else.
func TestQueueLeaseExpiry(t *testing.T) {
	dir := t.TempDir()
	clock := newFakeClock()
	q := openTestQueue(t, dir, nil, clock)
	defer q.Close()

	j := testJob(t, 3)
	if _, _, err := q.Enqueue([]Job{j}); err != nil {
		t.Fatal(err)
	}
	deadID, _, ok := q.Lease("doomed", time.Second)
	if !ok {
		t.Fatal("lease failed")
	}
	if _, _, ok := q.Lease("other", time.Second); ok {
		t.Fatal("leased job handed out twice")
	}

	clock.advance(1500 * time.Millisecond)
	if n := q.ExpireLeases(); n != 1 {
		t.Fatalf("expired %d leases, want 1", n)
	}
	newID, job, ok := q.Lease("other", time.Second)
	if !ok || job.KeyHex != j.KeyHex {
		t.Fatal("expired job not re-leasable")
	}
	if _, _, ok := q.Renew(deadID, time.Second); ok {
		t.Fatal("dead lease renewed")
	}

	// The dead worker's late report is still accepted: the result of a
	// pure spec is valid regardless of which lease computed it.
	if err := q.Complete(deadID, j.Key(), true, ""); err != nil {
		t.Fatalf("late report rejected: %v", err)
	}
	// The live lease's subsequent report is a no-op duplicate.
	if err := q.Complete(newID, j.Key(), true, ""); err != nil {
		t.Fatal(err)
	}
	if q.Stats().Completed != 1 {
		t.Fatalf("duplicate report double-counted: %+v", q.Stats())
	}
}

// TestQueueRecovery pins the dispatcher-crash contract: enqueued jobs
// and completions survive an abrupt reopen (no Close — the journal's
// fsyncs alone carry the state), and leases do not (in-flight work
// requeues).
func TestQueueRecovery(t *testing.T) {
	dir := t.TempDir()
	clock := newFakeClock()
	q := openTestQueue(t, dir, nil, clock)

	j1, j2, j3 := testJob(t, 1), testJob(t, 2), testJob(t, 3)
	if _, _, err := q.Enqueue([]Job{j1, j2, j3}); err != nil {
		t.Fatal(err)
	}
	leaseID, _, ok := q.Lease("w", time.Minute) // j1 in flight
	if !ok {
		t.Fatal("lease failed")
	}
	if err := q.Complete(leaseID, j1.Key(), true, ""); err != nil {
		t.Fatal(err)
	}
	if _, _, ok = q.Lease("w", time.Minute); !ok { // j2 in flight, never completed
		t.Fatal("second lease failed")
	}
	// No Close: simulate kill -9 of the dispatcher.

	q2 := openTestQueue(t, dir, nil, clock)
	defer q2.Close()
	stats := q2.Stats()
	if stats.Depth != 2 {
		t.Fatalf("recovered depth = %d, want 2 (j2 requeued + j3 pending)", stats.Depth)
	}
	if stats.Recovered != 2 {
		t.Fatalf("recovered counter = %d, want 2", stats.Recovered)
	}
	// j1 completed before the crash; its key deduplicates re-enqueues
	// only if still known — after recovery compaction it is forgotten,
	// which is fine (the result store remembers). j2 and j3 must lease.
	seen := map[string]bool{}
	for {
		_, job, ok := q2.Lease("w2", time.Minute)
		if !ok {
			break
		}
		seen[job.KeyHex] = true
	}
	if !seen[j2.KeyHex] || !seen[j3.KeyHex] || len(seen) != 2 {
		t.Fatalf("recovered leases = %v", seen)
	}
}

// TestQueueSelfHealFromStore pins the one unjournaled crash window: the
// result reached the store but the completion frame didn't hit the
// journal. Recovery must mark the job done, not re-run it.
func TestQueueSelfHealFromStore(t *testing.T) {
	dir := t.TempDir()
	clock := newFakeClock()
	store, err := OpenResultStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	q := openTestQueue(t, dir, store, clock)

	j := testJob(t, 9)
	if _, _, err := q.Enqueue([]Job{j}); err != nil {
		t.Fatal(err)
	}
	// Crash after the store write, before Complete: only the store knows.
	if err := store.Put(j.Key(), testResult(9)); err != nil {
		t.Fatal(err)
	}

	q2 := openTestQueue(t, dir, store, clock)
	defer q2.Close()
	if done, _ := q2.Status(j.Key()); !done {
		t.Fatal("store-backed job not self-healed to done")
	}
	if _, _, ok := q2.Lease("w", time.Minute); ok {
		t.Fatal("self-healed job leased out again")
	}
}

// TestQueueCompaction drives enough completions to trigger snapshot
// compaction and verifies the journal shrinks while state survives.
func TestQueueCompaction(t *testing.T) {
	dir := t.TempDir()
	clock := newFakeClock()
	q := openTestQueue(t, dir, nil, clock)

	var jobs []Job
	for i := 0; i < compactEvery+8; i++ {
		jobs = append(jobs, testJob(t, uint64(1000+i)))
	}
	if _, _, err := q.Enqueue(jobs); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < compactEvery+4; i++ {
		id, job, ok := q.Lease("w", time.Minute)
		if !ok {
			t.Fatalf("lease %d failed", i)
		}
		if err := q.Complete(id, job.Key(), true, ""); err != nil {
			t.Fatal(err)
		}
	}
	// Past compactEvery completions the journal was truncated; the
	// remaining pending jobs live in the snapshot.
	q2 := openTestQueue(t, dir, nil, clock)
	defer q2.Close()
	if depth := q2.Stats().Depth; depth != 4 {
		t.Fatalf("post-compaction recovered depth = %d, want 4", depth)
	}
}

// TestQueueReadmitsLostResult: a completed job whose result is not in
// the store (verify-on-read purged it) is admitted again under a fresh
// enqueue frame, so it is recomputed and a reopened queue still holds it
// as pending. Failed jobs and jobs with a stored result dedupe.
func TestQueueReadmitsLostResult(t *testing.T) {
	dir := t.TempDir()
	clock := newFakeClock()
	store, err := OpenResultStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	q := openTestQueue(t, dir, store, clock)
	lost, kept, failed := testJob(t, 1), testJob(t, 2), testJob(t, 3)
	if _, _, err := q.Enqueue([]Job{lost, kept, failed}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		leaseID, job, ok := q.Lease("w", time.Minute)
		if !ok {
			t.Fatal("lease failed")
		}
		switch job.KeyHex {
		case failed.KeyHex:
			err = q.Complete(leaseID, job.Key(), false, "engine rejected the spec")
		case kept.KeyHex:
			if err := store.Put(job.Key(), testResult(2)); err != nil {
				t.Fatal(err)
			}
			err = q.Complete(leaseID, job.Key(), true, "")
		default:
			err = q.Complete(leaseID, job.Key(), true, "")
		}
		if err != nil {
			t.Fatal(err)
		}
	}

	added, deduped, err := q.Enqueue([]Job{lost, kept, failed})
	if err != nil {
		t.Fatal(err)
	}
	if added != 1 || deduped != 2 {
		t.Fatalf("re-enqueue added %d deduped %d, want 1/2", added, deduped)
	}
	if done, _ := q.Status(lost.Key()); done {
		t.Fatal("re-admitted job still reports done")
	}
	select {
	case <-q.DoneCh(lost.Key()):
		t.Fatal("re-admitted job's done channel is closed")
	default:
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}

	q2 := openTestQueue(t, dir, store, clock)
	defer q2.Close()
	if done, _ := q2.Status(lost.Key()); done {
		t.Fatal("reopened queue holds the re-admitted job as done")
	}
	if _, job, ok := q2.Lease("w", time.Minute); !ok || job.KeyHex != lost.KeyHex {
		t.Fatalf("reopened queue leased %v %q, want the re-admitted job", ok, job.KeyHex)
	}
	if _, _, ok := q2.Lease("w", time.Minute); ok {
		t.Fatal("reopened queue leased a second job")
	}
}

// TestQueueReplaysEnqueueAfterComplete pins the journal rule alone: an
// enqueue frame that follows a completion of the same key leaves the job
// pending on replay.
func TestQueueReplaysEnqueueAfterComplete(t *testing.T) {
	dir := t.TempDir()
	j, _, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	job := testJob(t, 4)
	for _, step := range []func() error{
		func() error { return j.appendEnqueue(job) },
		func() error { return j.appendComplete(job.Key(), true, "") },
		func() error { return j.appendEnqueue(job) },
		j.sync, j.close,
	} {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	q := openTestQueue(t, dir, nil, newFakeClock())
	defer q.Close()
	if done, _ := q.Status(job.Key()); done {
		t.Fatal("job re-enqueued after its completion replayed as done")
	}
	if st := q.Stats(); st.Depth != 1 || st.Recovered != 1 {
		t.Fatalf("replayed queue stats %+v, want one recovered pending job", st)
	}
}

// TestQueueDoneMeansStored: an ok completion leaves the queue holding
// nothing for the key, so whether the job is done — for Enqueue, DoneCh,
// Status and Known — is whether the store holds its result.
func TestQueueDoneMeansStored(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenResultStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	q := openTestQueue(t, dir, store, newFakeClock())
	defer q.Close()
	j := testJob(t, 5)
	if q.Known(j.Key()) {
		t.Fatal("a never-enqueued, unstored key is known")
	}
	if _, _, err := q.Enqueue([]Job{j}); err != nil {
		t.Fatal(err)
	}
	done := q.DoneCh(j.Key())
	if isDone, _ := q.Status(j.Key()); isDone || !q.Known(j.Key()) {
		t.Fatal("a pending job reads as done or unknown")
	}
	leaseID, _, ok := q.Lease("w", time.Minute)
	if !ok {
		t.Fatal("lease failed")
	}
	if err := store.Put(j.Key(), testResult(5)); err != nil {
		t.Fatal(err)
	}
	if err := q.Complete(leaseID, j.Key(), true, ""); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	default:
		t.Fatal("completion did not close the waiter's channel")
	}
	if len(q.jobs) != 0 {
		t.Fatalf("the queue still holds %d jobs after an ok completion", len(q.jobs))
	}
	if st := q.Stats(); st.Completed != 1 || st.Depth != 0 || st.Leased != 0 {
		t.Fatalf("stats %+v", st)
	}
	// Stored: done, known, and a re-enqueue dedupes.
	if isDone, errMsg := q.Status(j.Key()); !isDone || errMsg != "" || !q.Known(j.Key()) {
		t.Fatal("a stored job reads as not done or unknown")
	}
	select {
	case <-q.DoneCh(j.Key()):
	default:
		t.Fatal("DoneCh of a stored job is not born closed")
	}
	if added, deduped, err := q.Enqueue([]Job{j}); err != nil || added != 0 || deduped != 1 {
		t.Fatalf("re-enqueue of a stored job: added %d deduped %d (%v), want 0/1", added, deduped, err)
	}
	// Purged: the same job is not known and is admitted again.
	store.drop(j.Key(), store.path(j.Key()))
	if q.Known(j.Key()) {
		t.Fatal("a purged, completed job is known")
	}
	if added, deduped, err := q.Enqueue([]Job{j}); err != nil || added != 1 || deduped != 0 {
		t.Fatalf("re-enqueue of a purged job: added %d deduped %d (%v), want 1/0", added, deduped, err)
	}
	select {
	case <-q.DoneCh(j.Key()):
		t.Fatal("DoneCh of a re-admitted job is closed")
	default:
	}
	if isDone, _ := q.Status(j.Key()); isDone {
		t.Fatal("a re-admitted job reads as done")
	}
}

// TestQueueReopenCountsNothingReplayed: the lifetime counters count what
// this process did. Reopening a queue whose journal holds completions,
// ok and failed, and a job the store self-heals counts none of them,
// and the reopened queue counts its own completions from zero.
func TestQueueReopenCountsNothingReplayed(t *testing.T) {
	dir := t.TempDir()
	clock := newFakeClock()
	store, err := OpenResultStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	q := openTestQueue(t, dir, store, clock)
	jobs := []Job{testJob(t, 61), testJob(t, 62), testJob(t, 63), testJob(t, 64), testJob(t, 65)}
	if _, _, err := q.Enqueue(jobs); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		id, job, ok := q.Lease("w", time.Minute)
		if !ok {
			t.Fatalf("lease %d failed", i)
		}
		errMsg := ""
		if i == 2 {
			errMsg = "boom"
		}
		if err := q.Complete(id, job.Key(), errMsg == "", errMsg); err != nil {
			t.Fatal(err)
		}
	}
	// The fourth job's result reaches the store, its completion frame
	// never does: the reopened queue self-heals it.
	if err := store.Put(jobs[3].Key(), testResult(64)); err != nil {
		t.Fatal(err)
	}
	if st := q.Stats(); st.Enqueued != 5 || st.Completed != 2 || st.Failed != 1 || st.Dispatched != 3 {
		t.Fatalf("before reopen: %+v", st)
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}

	q2 := openTestQueue(t, dir, store, clock)
	defer q2.Close()
	if st := q2.Stats(); st.Enqueued != 0 || st.Deduped != 0 || st.Dispatched != 0 ||
		st.Completed != 0 || st.Failed != 0 || st.Expired != 0 || st.Recovered != 1 || st.Depth != 1 {
		t.Fatalf("after reopen: %+v, want nothing counted but the one recovered pending job", st)
	}
	id, job, ok := q2.Lease("w", time.Minute)
	if !ok || job.KeyHex != jobs[4].KeyHex {
		t.Fatalf("reopened queue leased %v %q, want the pending job", ok, job.KeyHex)
	}
	if err := q2.Complete(id, job.Key(), true, ""); err != nil {
		t.Fatal(err)
	}
	if st := q2.Stats(); st.Completed != 1 || st.Dispatched != 1 || st.Failed != 0 {
		t.Fatalf("after one completion: %+v", st)
	}
}
