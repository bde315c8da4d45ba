package sweep

// Record mode: what the daemons' memo keeps per key. The library memo
// keeps each computed *sim.Result, plan task lists and grid included;
// a daemon needs only two things from a finished run, the row summary
// a sweep row prints and the canonical bytes a /v1/run or a worker
// report carries. A Record is those two things, and nothing more once
// its bytes exist.

import (
	"crypto/sha256"
	"sync"
	"time"

	"flagsim/internal/sim"
	"flagsim/internal/workplan"
)

// Summary is what a sweep row reads from a run: its makespan, its event
// count and the SHA-256 of its final grid's String() form.
type Summary struct {
	Makespan   time.Duration
	Events     uint64
	GridSHA256 [sha256.Size]byte
}

// Encoder renders a record's run as its canonical bytes. res is the
// record's slim copy of the computed Result: its Plan holds only the
// strategy, and its Grid and Trace are nil; sum carries the grid's
// digest. wire.EncodeRecord is the daemons' encoder.
type Encoder func(res *sim.Result, sum Summary) ([]byte, error)

// Record is one successful run as record mode memoizes it: the summary,
// taken when the compute finished, and the canonical bytes, encoded by
// the first Bytes call. It is safe for concurrent use.
type Record struct {
	Summary

	once sync.Once
	// enc and slim are what Bytes encodes from; both are dropped once it
	// has, so a read record holds only its summary and its bytes.
	enc  Encoder
	slim *sim.Result
	raw  []byte
	err  error
}

// newRecord summarizes a computed run and keeps the slim copy of it
// that enc needs: the Result's own fields with Plan reduced to its
// strategy and Grid and Trace dropped. The Procs and Implements slices
// are shared with res, which the computing caller treats as read-only.
func newRecord(res *sim.Result, enc Encoder) *Record {
	slim := *res
	slim.Plan = &workplan.Plan{Strategy: res.Plan.Strategy}
	slim.Grid, slim.Trace = nil, nil
	return &Record{
		Summary: Summary{Makespan: res.Makespan, Events: res.Events, GridSHA256: res.Grid.Digest()},
		enc:     enc, slim: &slim,
	}
}

// StoredRecord returns the record of a run whose canonical bytes were
// already encoded, as a Tier reads it back: Bytes returns raw.
func StoredRecord(sum Summary, raw []byte) *Record {
	r := &Record{Summary: sum, raw: raw}
	r.once.Do(func() {}) // the bytes exist: Bytes has nothing to encode
	return r
}

// Bytes returns the run's canonical bytes. The first call encodes them
// (concurrent first calls wait for that one encode) and releases the
// slim copy; every call returns the same slice, which callers must not
// modify.
func (r *Record) Bytes() ([]byte, error) {
	r.once.Do(func() {
		r.raw, r.err = r.enc(r.slim, r.Summary)
		r.enc, r.slim = nil, nil
	})
	return r.raw, r.err
}
