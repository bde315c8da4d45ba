package dist

// DiskTier plugs a ResultStore in behind a sweep.Sweeper's in-memory
// memo (sweep.Options.Tier): memo miss → verified disk read → compute
// with write-through. It is how a worker's -cache-dir survives process
// restarts: one process at a time owns the directory, and each one
// started on it after another shares the warm set it left.

import (
	"encoding/hex"
	"path/filepath"
	"time"

	"flagsim/internal/sweep"
)

// tierDirName is the tier's directory under -cache-dir. It keeps the
// canonical wire bytes the dispatcher's store holds, in the same log
// format, but under its own name: a -cache-dir written before keeps its entries, in
// the retired result codec, under "results", where the tier never reads
// them. Nor does it read the file-per-result entries an older tier left
// under "records": every such entry is a miss, and never a
// first-write-wins mismatch.
const tierDirName = "records"

// DiskTier adapts a ResultStore to the sweep.Tier interface. It stores
// each record's canonical bytes (wire.MarshalResult's) with its summary,
// and reads a stored entry back as a record, with no decode per read. A
// frame that fails the store's verification is a miss (the pool
// recomputes) and an encode failure skips the write-through — a broken
// disk tier can cost time, never correctness.
type DiskTier struct {
	store *ResultStore
}

// OpenDiskTier opens (creating if needed) a disk tier rooted at dir.
func OpenDiskTier(dir string) (*DiskTier, error) {
	store, err := openStore(filepath.Join(dir, tierDirName))
	if err != nil {
		return nil, err
	}
	return &DiskTier{store: store}, nil
}

// Store exposes the underlying store (for stats export).
func (t *DiskTier) Store() *ResultStore { return t.store }

// Get implements sweep.Tier.
func (t *DiskTier) Get(key Key) (*sweep.Record, bool) {
	e, ok := t.store.get(key)
	if !ok {
		return nil, false
	}
	digest, _ := ParseKey(e.gridSHA256) // decodeResult accepted it
	return sweep.StoredRecord(sweep.Summary{Makespan: time.Duration(e.makespanNS),
		Events: e.events, GridSHA256: digest}, e.payload), true
}

// Put implements sweep.Tier.
func (t *DiskTier) Put(key Key, rec *sweep.Record) {
	raw, err := rec.Bytes()
	if err != nil {
		return
	}
	// A mismatch error here means a determinism violation; the store
	// already counted it, and keeping the original is the right call.
	_ = t.store.put(key, entry{payload: raw, summary: summary{
		makespanNS: int64(rec.Makespan), events: rec.Events,
		gridSHA256: hex.EncodeToString(rec.GridSHA256[:]),
	}})
}

// DiskTier must satisfy sweep.Tier.
var _ sweep.Tier = (*DiskTier)(nil)
