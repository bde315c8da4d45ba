package dist

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"unsafe"

	"flagsim/internal/sweep"
	"flagsim/internal/wire"
)

// TestTierRecordRoundTrip: a worker pool over a disk tier stores each
// computed record's canonical bytes (wire.MarshalResult's), and a fresh
// pool over a reopened tier serves every spec from disk, with the same
// bytes and the same summary, without computing.
func TestTierRecordRoundTrip(t *testing.T) {
	dir := t.TempDir()
	specs := []sweep.Spec{
		{Flag: "mauritius", Scenario: 2, Seed: 11},
		{Flag: "mauritius", Exec: sweep.ExecSteal, Scenario: 3, Seed: 5, PerColor: 2},
		{Flag: "gen:v1:7:3", Exec: sweep.ExecDynamic, Workers: 3, Seed: 1},
	}
	tier, err := OpenDiskTier(dir)
	if err != nil {
		t.Fatal(err)
	}
	cold := NewWorker(WorkerConfig{Tier: tier}).Sweeper().Run(nil, specs)
	if err := cold.Err(); err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenDiskTier(dir)
	if err != nil {
		t.Fatal(err)
	}
	warm := NewWorker(WorkerConfig{Tier: reopened}).Sweeper()
	batch := warm.Run(nil, specs)
	if batch.Cache.TierHits != len(specs) || batch.Cache.Misses != 0 {
		t.Fatalf("reopened tier: %+v, want %d tier hits and no compute", batch.Cache, len(specs))
	}
	for i, spec := range specs {
		fresh, err := spec.RunOnce(nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := wire.MarshalResult(fresh)
		if err != nil {
			t.Fatal(err)
		}
		stored, ok := reopened.Store().Get(spec.Key())
		if !ok || !bytes.Equal(stored, want) {
			t.Fatalf("%s: the tier stored %q, want the wire bytes %q", spec.Label(), stored, want)
		}
		rec := batch.Runs[i].Record
		got, err := rec.Bytes()
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: served %q (%v), want %q", spec.Label(), got, err, want)
		}
		sum := sweep.Summary{Makespan: fresh.Makespan, Events: fresh.Events,
			GridSHA256: sha256.Sum256([]byte(fresh.Grid.String()))}
		if rec.Summary != sum || cold.Runs[i].Record.Summary != sum {
			t.Fatalf("%s: summary %+v read back, %+v computed, want %+v",
				spec.Label(), rec.Summary, cold.Runs[i].Record.Summary, sum)
		}
	}
}

// TestTierSharesRecordBytes: the disk tier's in-memory copy of a
// computed record is the record's own bytes, not a second copy of them.
func TestTierSharesRecordBytes(t *testing.T) {
	tier, err := OpenDiskTier(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := sweep.Spec{Flag: "mauritius", Scenario: 2, Seed: 11}
	batch := NewWorker(WorkerConfig{Tier: tier}).Sweeper().Run(nil, []sweep.Spec{spec})
	if err := batch.Err(); err != nil {
		t.Fatal(err)
	}
	raw, err := batch.Runs[0].Record.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	stored, ok := tier.Store().Get(spec.Key())
	if !ok || !bytes.Equal(stored, raw) {
		t.Fatalf("the tier holds %q, want the record's %q", stored, raw)
	}
	if unsafe.SliceData(stored) != unsafe.SliceData(raw) {
		t.Fatalf("the tier holds a copy of the record's %d bytes", len(raw))
	}
}

// TestTierRecordRejects: the store's decoder refuses, with ErrWire, a
// payload that is not a wire result with a 64-hex-digit grid digest, so
// a file holding one is purged instead of served.
func TestTierRecordRejects(t *testing.T) {
	res, err := sweep.Spec{Flag: "mauritius", Scenario: 2, Seed: 11}.RunOnce(nil)
	if err != nil {
		t.Fatal(err)
	}
	good, err := wire.MarshalResult(res)
	if err != nil {
		t.Fatal(err)
	}
	e, err := decodeResult(good)
	if err != nil {
		t.Fatalf("wire bytes rejected: %v", err)
	}
	want := summary{makespanNS: int64(res.Makespan), events: res.Events,
		gridSHA256: fmt.Sprintf("%x", res.Grid.Digest())}
	if e.summary != want || !bytes.Equal(e.payload, good) {
		t.Fatalf("decoded %+v, want %+v over the same bytes", e.summary, want)
	}
	cases := map[string]string{
		"not json":        `{{{`,
		"old codec":       `{"v":1,"makespan_ns":1,"setup_ns":0,"faults":{}}`,
		"unknown field":   `{"strategy":"s","makespan_ns":1,"grid_sha256":"` + fmt.Sprintf("%064x", 0) + `","zzz":1}`,
		"short digest":    `{"strategy":"s","makespan_ns":1,"grid_sha256":"00"}`,
		"non-hex digest":  `{"strategy":"s","makespan_ns":1,"grid_sha256":"` + fmt.Sprintf("%064s", "xyz") + `"}`,
		"trailing data":   string(good) + ` {}`,
		"missing payload": ``,
	}
	for name, raw := range cases {
		if _, err := decodeResult([]byte(raw)); !errors.Is(err, ErrWire) {
			t.Errorf("%s: err = %v, want ErrWire", name, err)
		}
	}
}

// TestTierIgnoresOldCodecEntries: a -cache-dir written by the retired
// result codec ("encResult" v1, under results/) reads as a tier miss.
// The recompute is stored in the tier's own namespace, the old entry is
// left alone, and no first-write-wins mismatch is counted.
func TestTierIgnoresOldCodecEntries(t *testing.T) {
	dir := t.TempDir()
	spec := sweep.Spec{Flag: "mauritius", Scenario: 2, Seed: 11}
	key := spec.Key()
	oldPayload := []byte(`{"v":1,"plan":{"FlagName":"mauritius","W":12,"H":8,"Strategy":"layer-blocks"},` +
		`"makespan_ns":1,"setup_ns":0,"events":2,"faults":{},"grid_w":1,"grid_h":1,"grid_cells":"AQ==","grid_paints":1}`)
	writeEntry(t, filepath.Join(dir, storeDirName), key, oldPayload)

	tier, err := OpenDiskTier(dir)
	if err != nil {
		t.Fatal(err)
	}
	batch := NewWorker(WorkerConfig{Tier: tier}).Sweeper().Run(nil, []sweep.Spec{spec})
	if err := batch.Err(); err != nil {
		t.Fatal(err)
	}
	if batch.Cache.TierHits != 0 || batch.Cache.TierMisses != 1 || batch.Cache.Misses != 1 {
		t.Fatalf("old entry: %+v, want one tier miss and one compute", batch.Cache)
	}
	want, err := batch.Runs[0].Record.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	if stored, ok := tier.Store().Get(key); !ok || !bytes.Equal(stored, want) {
		t.Fatalf("the recompute was not stored: %q", stored)
	}
	if st := tier.Store().Stats(); st.Mismatches != 0 || st.Corrupt != 0 {
		t.Fatalf("tier store stats %+v, want no mismatch and no corrupt entry", st)
	}
	kept, err := os.ReadFile(filepath.Join(dir, storeDirName, fmt.Sprintf("%x", key[:])))
	if err != nil || !bytes.Contains(kept, oldPayload) {
		t.Fatalf("the old entry was disturbed: %v", err)
	}
}

// TestTierPurgesUndecodableEntries: a framed, checksummed entry in a
// worker's tier whose payload is not a result is purged, counted as
// corrupt (not as a hit or a determinism mismatch) and recomputed; the
// next start serves the recomputed record from disk.
func TestTierPurgesUndecodableEntries(t *testing.T) {
	for i, payload := range []string{`not json`, `{"x":1}`} {
		dir := t.TempDir()
		spec := sweep.Spec{Flag: "mauritius", Scenario: 2, Seed: uint64(40 + i)}
		writeEntry(t, filepath.Join(dir, tierDirName), spec.Key(), []byte(payload))
		fresh, err := spec.RunOnce(nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := wire.MarshalResult(fresh)
		if err != nil {
			t.Fatal(err)
		}
		for start := 0; start < 2; start++ {
			tier, err := OpenDiskTier(dir)
			if err != nil {
				t.Fatal(err)
			}
			batch := NewWorker(WorkerConfig{Tier: tier}).Sweeper().Run(nil, []sweep.Spec{spec})
			if err := batch.Err(); err != nil {
				t.Fatal(err)
			}
			got, err := batch.Runs[0].Record.Bytes()
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%q start %d: served %q (%v), want %q", payload, start, got, err, want)
			}
			st := tier.Store().Stats()
			if start == 0 && (batch.Cache.TierHits != 0 || batch.Cache.Misses != 1 ||
				st != StoreStats{Entries: 1, Bytes: int64(len(want)), Misses: 1, Corrupt: 1}) {
				t.Fatalf("%q first start: %+v, store %+v; want one compute, one miss, one corrupt entry",
					payload, batch.Cache, st)
			}
			if start == 1 && (batch.Cache.TierHits != 1 || batch.Cache.Misses != 0 ||
				st != StoreStats{Entries: 1, Bytes: int64(len(want)), Hits: 1}) {
				t.Fatalf("%q next start: %+v, store %+v; want one tier hit", payload, batch.Cache, st)
			}
		}
	}
}
