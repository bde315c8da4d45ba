package dist

// The dispatcher's durable job queue. Accepted jobs survive crashes
// (journaled and fsynced before the enqueue returns), duplicate specs
// collapse to one entry (content-addressed dedup), and in-flight work is
// protected by expiring leases: a worker that vanishes mid-job simply
// loses its lease and the job returns to the pending FIFO.
//
// Leases are volatile by design — they live only in memory. Restart
// forgets them, which requeues whatever was in flight; for pure,
// content-addressed jobs re-execution is always safe, so the queue
// journals only the two transitions that matter (enqueued, completed)
// and keeps the fsync count at one per enqueue batch and one per failed
// completion. An ok completion costs no fsync of its own: its result,
// stored durably before it completes, is its durable record.
//
// The queue holds only outstanding and failed jobs. A job that
// completes ok leaves it: the result store is the only record of a
// finished job, so "done" means "stored".

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"flagsim/internal/obs"
)

// compactEvery bounds journal growth: after this many completions the
// queue rewrites the snapshot and truncates the journal.
const compactEvery = 256

type jobState uint8

const (
	statePending jobState = iota
	stateLeased
	stateFailed
)

// queued is one job the queue holds.
type queued struct {
	job   Job
	state jobState
	err   string        // stateFailed: the fleet's error
	done  chan struct{} // made by the first DoneCh, closed on completion
}

// closedCh is the done channel of every key that is not outstanding.
var closedCh = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// QueueStats is a snapshot of the queue's gauges and lifetime counters.
type QueueStats struct {
	// Depth counts jobs waiting for a worker (pending, not leased).
	Depth int `json:"depth"`
	// Leased counts jobs currently held under an active lease.
	Leased int `json:"leased"`
	// Outstanding is Depth+Leased: accepted but not yet completed.
	Outstanding int `json:"outstanding"`

	// The lifetime counters count what this queue did since Open: a
	// completion replayed from the journal or self-healed from the store
	// counts in none of them.
	Enqueued   int64 `json:"enqueued"`
	Deduped    int64 `json:"deduped"`
	Dispatched int64 `json:"dispatched"`
	Completed  int64 `json:"completed"`
	Failed     int64 `json:"failed"`
	Expired    int64 `json:"expired"`
	// Recovered counts jobs restored to pending by crash recovery at
	// Open (snapshot + journal replay, minus store self-heal).
	Recovered int64 `json:"recovered"`
}

type lease struct {
	id       string
	key      Key
	worker   string
	deadline time.Time
}

// Queue is the durable, lease-based job queue. Safe for concurrent use.
type Queue struct {
	dir string
	now func() time.Time
	// store holds the results of completed jobs: a job whose result it
	// holds is done.
	store *ResultStore

	mu      sync.Mutex
	j       *journal
	jobs    map[Key]*queued // pending, leased and failed jobs
	pending []Key           // FIFO of statePending keys
	leases  map[string]*lease

	enqueued, deduped, dispatched int64
	completed, failed, expired    int64
	recovered                     int64
	completionsSinceCompact       int
}

// OpenQueue recovers (or creates) the queue persisted under dir. store
// is required: it self-heals the completions a crash can lose. A job
// whose result already reached the store — the dispatcher persists
// results before it completes a job — is completed instead of requeued.
func OpenQueue(dir string, store *ResultStore, now func() time.Time) (*Queue, error) {
	if store == nil {
		return nil, errors.New("dist: a queue needs a result store")
	}
	if now == nil {
		now = time.Now
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	snapJobs, err := loadSnapshot(dir)
	if err != nil {
		return nil, err
	}
	j, recs, err := openJournal(dir)
	if err != nil {
		return nil, err
	}
	q := &Queue{
		dir: dir, now: now, store: store, j: j,
		jobs:   make(map[Key]*queued),
		leases: make(map[string]*lease),
	}
	add := func(job Job) {
		if key := job.Key(); q.jobs[key] == nil {
			q.jobs[key] = &queued{job: job}
		}
	}
	for _, job := range snapJobs {
		add(job)
	}
	for _, rec := range recs {
		switch rec.op {
		case opEnqueue:
			add(rec.job)
		case opComplete:
			// Completion of a key the snapshot already dropped is a
			// legitimate no-op.
			if _, held := q.jobs[rec.key]; held {
				q.markComplete(rec.key, rec.ok, rec.msg)
			}
		}
	}
	// Self-heal: a crash can lose a finished job's completion frame —
	// between the store write and the frame, or after an ok completion
	// whose frame was not synced yet — and leave the job looking pending.
	// Its result is already durable, so finish it now rather than
	// re-running it. The check is a verified read, not Has: done means
	// stored, so a result that does not decode leaves its job pending.
	for key, qj := range q.jobs {
		if qj.state != statePending {
			continue
		}
		if _, ok := store.read(key); ok {
			q.markComplete(key, true, "")
		}
	}
	q.rebuildPending()
	q.recovered = int64(len(q.pending))
	// Compact immediately: recovery state becomes the new snapshot and
	// the journal restarts empty, so repeated restarts stay O(live set).
	if err := q.compactLocked(); err != nil {
		j.close()
		return nil, err
	}
	return q, nil
}

// Close syncs and closes the journal. The queue must not be used after.
func (q *Queue) Close() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if err := q.j.sync(); err != nil {
		q.j.close()
		return err
	}
	return q.j.close()
}

// Enqueue accepts a batch of jobs, journaling new ones durably (one
// fsync for the whole batch) before returning. A job the queue holds —
// pending, leased or failed (the error is a deterministic property of
// the spec) — or whose result the store holds dedupes. Any other job is
// admitted, including one whose stored result verify-on-read purged: it
// is computed again.
func (q *Queue) Enqueue(jobs []Job) (added, deduped int, err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	var fresh []Key
	for _, job := range jobs {
		key := job.Key()
		if _, held := q.jobs[key]; held || q.store.Has(key) {
			deduped++
			q.deduped++
			continue
		}
		if err := q.j.appendEnqueue(job); err != nil {
			return added, deduped, err
		}
		q.jobs[key] = &queued{job: job}
		fresh = append(fresh, key)
		added++
		q.enqueued++
	}
	if added > 0 {
		if err := q.j.sync(); err != nil {
			return added, deduped, err
		}
		// Only after the fsync do the jobs become dispatchable: a job a
		// worker could observe is always a job a crash cannot lose.
		q.pending = append(q.pending, fresh...)
	}
	return added, deduped, nil
}

// Lease hands the oldest pending job to worker under a lease of the
// given TTL. ok is false when nothing is pending.
func (q *Queue) Lease(worker string, ttl time.Duration) (leaseID string, job Job, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.expireLocked()
	for len(q.pending) > 0 {
		key := q.pending[0]
		q.pending = q.pending[1:]
		qj, held := q.jobs[key]
		if !held || qj.state != statePending {
			continue // completed or leased while queued twice; skip
		}
		id := obs.NewRunID()
		qj.state = stateLeased
		q.leases[id] = &lease{id: id, key: key, worker: worker, deadline: q.now().Add(ttl)}
		q.dispatched++
		return id, qj.job, true
	}
	return "", Job{}, false
}

// Renew extends a live lease, identifying which job and worker the lease
// binds so the caller can stamp timelines without carrying that state
// itself. ok false means the lease is gone (expired or completed): the
// worker must abandon the execution.
func (q *Queue) Renew(leaseID string, ttl time.Duration) (key Key, worker string, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.expireLocked()
	l, live := q.leases[leaseID]
	if !live {
		return Key{}, "", false
	}
	l.deadline = q.now().Add(ttl)
	return l.key, l.worker, true
}

// Complete records a job's outcome in the journal and wakes every
// waiter. A failed outcome is fsynced before Complete returns. An ok one
// is not: the caller stores the result durably before it completes the
// job, and that stored result is the job's durable record. Its frame
// becomes durable with the journal's next fsync (an enqueue, a failed
// completion, a compaction or Close), and a crash that loses it first is
// healed from the store at OpenQueue. Reports against an expired or
// unknown lease are still accepted while the job is outstanding: the
// result of a pure spec is valid no matter which lease computed it. A
// report for a job that is not outstanding changes nothing: the first
// report won, and callers check Known before they report.
func (q *Queue) Complete(leaseID string, key Key, ok bool, errMsg string) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if l, live := q.leases[leaseID]; live {
		if l.key != key {
			return fmt.Errorf("%w: report key does not match lease", ErrWire)
		}
		delete(q.leases, leaseID)
	}
	if qj, held := q.jobs[key]; !held || qj.state == stateFailed {
		return nil
	}
	if err := q.j.appendComplete(key, ok, errMsg); err != nil {
		return err
	}
	if !ok {
		// No stored result stands for a failure.
		if err := q.j.sync(); err != nil {
			return err
		}
	}
	q.markComplete(key, ok, errMsg)
	if ok {
		q.completed++
	} else {
		q.failed++
	}
	q.completionsSinceCompact++
	if q.completionsSinceCompact >= compactEvery {
		if err := q.compactLocked(); err != nil {
			return err
		}
	}
	return nil
}

// DoneCh returns a channel closed when key completes (either way). For a
// key that is not pending or leased the channel is born closed.
func (q *Queue) DoneCh(key Key) <-chan struct{} {
	q.mu.Lock()
	defer q.mu.Unlock()
	qj, held := q.jobs[key]
	if !held || qj.state == stateFailed {
		return closedCh
	}
	if qj.done == nil {
		qj.done = make(chan struct{})
	}
	return qj.done
}

// Status reports a key's completion: done is true unless the job is
// pending or leased, with errMsg non-empty when it failed.
func (q *Queue) Status(key Key) (done bool, errMsg string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	qj, held := q.jobs[key]
	if !held {
		return true, ""
	}
	return qj.state == stateFailed, qj.err
}

// Known reports whether the queue holds key or the store holds its
// result.
func (q *Queue) Known(key Key) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	_, held := q.jobs[key]
	return held || q.store.Has(key)
}

// PendingJobs snapshots the dispatchable jobs in FIFO order. Used after
// journal recovery to rebuild timelines for jobs a restart carried over;
// completed jobs are deliberately absent (their lifecycles died with the
// previous process).
func (q *Queue) PendingJobs() []Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]Job, 0, len(q.pending))
	for _, key := range q.pending {
		if qj, held := q.jobs[key]; held && qj.state == statePending {
			out = append(out, qj.job)
		}
	}
	return out
}

// ExpireLeases requeues every lease past its deadline, returning how
// many expired. The dispatcher calls this from a ticker; Lease and
// Renew also expire lazily.
func (q *Queue) ExpireLeases() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.expireLocked()
}

// Stats returns a snapshot of depth, leases, and lifetime counters.
func (q *Queue) Stats() QueueStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	depth := 0
	for _, qj := range q.jobs {
		if qj.state == statePending {
			depth++
		}
	}
	return QueueStats{
		Depth: depth, Leased: len(q.leases), Outstanding: depth + len(q.leases),
		Enqueued: q.enqueued, Deduped: q.deduped, Dispatched: q.dispatched,
		Completed: q.completed, Failed: q.failed, Expired: q.expired,
		Recovered: q.recovered,
	}
}

// expireLocked requeues overdue leases; q.mu must be held.
func (q *Queue) expireLocked() int {
	now := q.now()
	n := 0
	for id, l := range q.leases {
		if l.deadline.After(now) {
			continue
		}
		delete(q.leases, id)
		if qj, held := q.jobs[l.key]; held && qj.state == stateLeased {
			qj.state = statePending
			q.pending = append(q.pending, l.key)
		}
		q.expired++
		n++
	}
	return n
}

// markComplete records the outcome of a job the queue holds and wakes
// its waiters; q.mu must be held. An ok job leaves the queue; a failed
// one stays, with its error, so it still dedupes. It neither journals
// nor counts: recovery replays completions through it, and callers that
// complete a job themselves journal first and count after.
func (q *Queue) markComplete(key Key, ok bool, errMsg string) {
	qj := q.jobs[key]
	if ok {
		delete(q.jobs, key)
	} else {
		qj.state, qj.err = stateFailed, errMsg
	}
	for id, l := range q.leases {
		if l.key == key {
			delete(q.leases, id)
		}
	}
	if qj.done != nil {
		close(qj.done)
	}
}

// rebuildPending recomputes the FIFO from the held jobs (insertion
// order is irrelevant post-recovery); q.mu must be held.
func (q *Queue) rebuildPending() {
	q.pending = q.pending[:0]
	for key, qj := range q.jobs {
		if qj.state == statePending {
			q.pending = append(q.pending, key)
		}
	}
}

// compactLocked snapshots outstanding jobs and truncates the journal;
// q.mu must be held. Crash ordering: the snapshot rename is atomic and
// happens before the truncate, so a crash between the two replays a
// journal whose operations are all no-ops against the new snapshot.
func (q *Queue) compactLocked() error {
	var outstanding []Job
	for _, qj := range q.jobs {
		if qj.state != stateFailed {
			outstanding = append(outstanding, qj.job)
		}
	}
	if err := writeSnapshot(q.dir, outstanding); err != nil {
		return err
	}
	if err := q.j.reset(); err != nil {
		return err
	}
	q.completionsSinceCompact = 0
	return nil
}
