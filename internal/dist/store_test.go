package dist

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func storeKey(b byte) Key {
	return sha256.Sum256([]byte{b})
}

func TestStorePutGetAcrossOpens(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenResultStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	key, payload := storeKey(1), []byte(`{"makespan_ns":42}`)
	if _, ok := s.Get(key); ok {
		t.Fatal("empty store claims a hit")
	}
	if err := s.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(key)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("get after put: %q, %v", got, ok)
	}

	// A fresh open (new process) must serve the same bytes from disk.
	s2, err := OpenResultStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 1 {
		t.Fatalf("reopened store has %d entries, want 1", s2.Len())
	}
	got, ok = s2.Get(key)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("reopened get: %q, %v", got, ok)
	}
	st := s2.Stats()
	if st.Hits != 1 || st.Misses != 0 || st.Bytes != int64(len(payload)) {
		t.Fatalf("stats = %+v", st)
	}

	// Idempotent re-put of identical bytes is fine; different bytes are
	// a determinism violation.
	if err := s2.Put(key, payload); err != nil {
		t.Fatalf("identical re-put: %v", err)
	}
	if err := s2.Put(key, []byte(`{"makespan_ns":43}`)); !errors.Is(err, ErrResultMismatch) {
		t.Fatalf("mismatched re-put error = %v, want ErrResultMismatch", err)
	}
	if s2.Stats().Mismatches != 1 {
		t.Fatal("mismatch not counted")
	}
	if got, _ := s2.Get(key); !bytes.Equal(got, payload) {
		t.Fatal("mismatched put replaced the original")
	}
}

// TestStorePutCountsNoLookup: hits and misses count lookups only. A
// cold fleet sweep's stores count neither, and neither does a duplicate
// Put of a stored result.
func TestStorePutCountsNoLookup(t *testing.T) {
	f := startFleet(t, t.TempDir())
	stopWorkers := startWorkers(t, f, 2, nil)
	defer f.stop(t)
	defer stopWorkers()
	resp := postSweep(t, f.srv.URL, e2eSweepRequest())
	if resp.Failed != 0 || resp.Computed != 6 || resp.Count != 6 {
		t.Fatalf("cold sweep: %+v", resp)
	}
	store := f.d.Store()
	if st := store.Stats(); st.Entries != 6 || st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("after a cold 6-row sweep: %+v, want 6 entries, 0 hits, 0 misses", st)
	}
	jobs, _ := localCanonical(t, e2eSweepRequest())
	payload, ok := store.read(jobs[0].Key())
	if !ok {
		t.Fatal("no stored result for the sweep's first row")
	}
	if err := store.Put(jobs[0].Key(), payload); err != nil {
		t.Fatal(err)
	}
	if st := store.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("a duplicate Put counted a lookup: %+v", st)
	}
}

// TestRunCountsTierHitsLikeSweep: a cold /v1/run the fleet computes
// counts neither a tier hit nor a miss, as a computed sweep row does,
// and a warm rerun counts exactly one hit.
func TestRunCountsTierHitsLikeSweep(t *testing.T) {
	f := startFleet(t, t.TempDir())
	stopWorkers := startWorkers(t, f, 1, nil)
	defer f.stop(t)
	defer stopWorkers()
	post := func() RunFleetResponse {
		t.Helper()
		resp, err := http.Post(f.srv.URL+"/v1/run", "application/json",
			strings.NewReader(`{"flag":"mauritius","scenario":2,"seed":11}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run status %d", resp.StatusCode)
		}
		var out RunFleetResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	if out := post(); out.Warm {
		t.Fatal("the first run was served warm")
	}
	if st := f.d.Store().Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("after one cold run: %+v, want 0 hits, 0 misses", st)
	}
	if out := post(); !out.Warm {
		t.Fatal("the rerun was not served warm")
	}
	if st := f.d.Store().Stats(); st.Hits != 1 || st.Misses != 0 {
		t.Fatalf("after a warm rerun: %+v, want 1 hit, 0 misses", st)
	}
}

// TestStoreCorruptionDetected pins verify-on-read: flipped payload bytes
// are detected, the file removed, and the key reported as a miss.
func TestStoreCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenResultStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := storeKey(2)
	if err := s.Put(key, []byte("deterministic result bytes")); err != nil {
		t.Fatal(err)
	}

	// Corrupt the stored payload on disk, then read through a fresh
	// store (the first one has the payload cached in memory).
	var entryPath string
	entries, _ := os.ReadDir(filepath.Join(dir, storeDirName))
	for _, e := range entries {
		entryPath = filepath.Join(dir, storeDirName, e.Name())
	}
	raw, err := os.ReadFile(entryPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-sha256.Size-3] ^= 0xff // flip a payload byte
	if err := os.WriteFile(entryPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenResultStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Get(key); ok {
		t.Fatal("corrupt entry served as a hit")
	}
	if s2.Stats().Corrupt != 1 {
		t.Fatal("corruption not counted")
	}
	if _, err := os.Stat(entryPath); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("corrupt entry not removed from disk")
	}
	// The key is re-puttable after the purge (recompute path).
	if err := s2.Put(key, []byte("deterministic result bytes")); err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Get(key); !ok {
		t.Fatal("re-put after purge not served")
	}
}

// TestStoreWrongKeyFile pins the filename/embedded-key cross-check: an
// entry renamed to another key's filename must not be served.
func TestStoreWrongKeyFile(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenResultStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(storeKey(3), []byte("payload three")); err != nil {
		t.Fatal(err)
	}
	entries, _ := os.ReadDir(filepath.Join(dir, storeDirName))
	old := filepath.Join(dir, storeDirName, entries[0].Name())
	alias := storeKey(4)
	if err := os.Rename(old, s.path(alias)); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenResultStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Get(alias); ok {
		t.Fatal("aliased entry served under the wrong key")
	}
	if s2.Stats().Corrupt != 1 {
		t.Fatal("aliased entry not counted corrupt")
	}
}
