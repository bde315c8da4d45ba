package sweep

import (
	"bytes"
	"crypto/sha256"
	"sync"
	"testing"
)

// memTier is an in-memory Tier for tests: each record's bytes plus call
// counters. Like a disk tier it keeps bytes, not the record it was
// handed, and reads them back as a stored record.
type memTier struct {
	mu   sync.Mutex
	m    map[[sha256.Size]byte]*Record
	gets int
	puts int
}

func newMemTier() *memTier { return &memTier{m: make(map[[sha256.Size]byte]*Record)} }

func (t *memTier) Get(key [sha256.Size]byte) (*Record, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.gets++
	rec, ok := t.m[key]
	return rec, ok
}

func (t *memTier) Put(key [sha256.Size]byte, rec *Record) {
	raw, err := rec.Bytes()
	if err != nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.puts++
	t.m[key] = StoredRecord(rec.Summary, raw)
}

// TestTierWriteThroughAndHit drives the full tier lifecycle: a cold run
// writes through to the tier, a fresh Sweeper (empty memo) with the same
// tier serves the spec without computing, and the hit is promoted into
// the memo so the tier is consulted only once.
func TestTierWriteThroughAndHit(t *testing.T) {
	spec := Spec{Flag: "mauritius", W: 10, H: 6, Seed: 7}
	tier := newMemTier()

	cold := New(Options{Workers: 2, Encode: testEncode, Tier: tier})
	b1 := cold.Run(nil, []Spec{spec})
	if err := b1.Err(); err != nil {
		t.Fatal(err)
	}
	if tier.puts != 1 {
		t.Fatalf("cold compute wrote %d tier entries, want 1", tier.puts)
	}
	if b1.Cache.TierHits != 0 || b1.Cache.TierMisses != 1 {
		t.Fatalf("cold batch tier tally = %d hits / %d misses, want 0/1",
			b1.Cache.TierHits, b1.Cache.TierMisses)
	}

	// A new process (fresh memo, same tier) must not recompute.
	warm := New(Options{Workers: 2, Encode: testEncode, Tier: tier})
	b2 := warm.Run(nil, []Spec{spec})
	if err := b2.Err(); err != nil {
		t.Fatal(err)
	}
	if !b2.Runs[0].CacheHit {
		t.Fatal("tier-backed rerun was not a cache hit")
	}
	if b2.Cache.TierHits != 1 {
		t.Fatalf("warm batch tier hits = %d, want 1", b2.Cache.TierHits)
	}
	if b2.Runs[0].Result != nil {
		t.Fatal("a tier hit carried a live result")
	}
	want, _ := b1.Runs[0].Record.Bytes()
	got, err := b2.Runs[0].Record.Bytes()
	if err != nil || !bytes.Equal(got, want) || b2.Runs[0].Record.Summary != b1.Runs[0].Record.Summary {
		t.Fatalf("tier returned a different record: %q (%v), want %q", got, err, want)
	}
	stats := warm.Stats()
	if stats.Misses != 0 {
		t.Fatalf("tier-backed rerun computed %d specs, want 0", stats.Misses)
	}
	if stats.TierHits != 1 || stats.TierMisses != 0 {
		t.Fatalf("sweeper tier tally = %d hits / %d misses, want 1/0", stats.TierHits, stats.TierMisses)
	}

	// The tier hit was promoted into the memo: a second warm batch must
	// be served without consulting the tier again.
	getsBefore := tier.gets
	b3 := warm.Run(nil, []Spec{spec})
	if err := b3.Err(); err != nil {
		t.Fatal(err)
	}
	if !b3.Runs[0].CacheHit {
		t.Fatal("memo-promoted rerun was not a cache hit")
	}
	if tier.gets != getsBefore {
		t.Fatalf("memo-promoted rerun consulted the tier (%d extra gets)", tier.gets-getsBefore)
	}
}

// TestTierErrorsNotWritten pins that failing specs are memoized in
// memory only, never persisted to the tier.
func TestTierErrorsNotWritten(t *testing.T) {
	tier := newMemTier()
	s := New(Options{Workers: 1, Encode: testEncode, Tier: tier})
	bad := Spec{Flag: "no-such-flag"}
	b := s.Run(nil, []Spec{bad})
	if b.Err() == nil {
		t.Fatal("expected an error for an unknown flag")
	}
	if tier.puts != 0 {
		t.Fatalf("failed spec wrote %d tier entries, want 0", tier.puts)
	}
}

// TestTierNeedsRecordMode: a tier stores records, so New refuses one
// without an encoder instead of silently never consulting it.
func TestTierNeedsRecordMode(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted a Tier without Encode")
		}
	}()
	New(Options{Tier: newMemTier()})
}
