package dist

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"flagsim/internal/sweep"
	"flagsim/internal/wire"
)

func storeKey(b byte) Key {
	return sha256.Sum256([]byte{b})
}

// testResult is a minimal payload the store accepts as a result,
// distinct for each n.
func testResult(n int) []byte {
	return []byte(fmt.Sprintf(`{"makespan_ns":%d,"grid_sha256":"%064x"}`, n, n))
}

// openTestStore opens the store under dir and closes it when the test
// ends.
func openTestStore(t *testing.T, dir string) *ResultStore {
	t.Helper()
	s, err := OpenResultStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// logPath is the result log of the store directory sdir.
func logPath(sdir string) string { return filepath.Join(sdir, storeLogName) }

// appendFrame appends a framed, checksummed frame for key to the log of
// the store directory sdir, bypassing Put's decode: a frame a damaged
// disk or another program may have left there. The store reads it at its
// next open.
func appendFrame(t *testing.T, sdir string, key Key, payload []byte) {
	t.Helper()
	if err := os.MkdirAll(sdir, 0o755); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(logPath(sdir), os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(encodeFrame(key, payload)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// corruptFrame flips the lowest bit of the byte at offset i of key's
// last frame in the log of sdir (a negative i counts back from the
// frame's end), as a bad disk block would. The frame keeps its length,
// and a flipped digit leaves its payload a result that still decodes:
// only the checksum catches the change.
func corruptFrame(t *testing.T, sdir string, key Key, i int) {
	t.Helper()
	raw, err := os.ReadFile(logPath(sdir))
	if err != nil {
		t.Fatal(err)
	}
	start, end := -1, 0
	for off := 0; off+frameHeader <= len(raw); {
		k, n, ok := parseHeader(raw[off:])
		if !ok {
			break
		}
		if k == key {
			start, end = off, off+storeOverhead+n
		}
		off += storeOverhead + n
	}
	if start < 0 {
		t.Fatalf("no frame for key %x in the log", key[:4])
	}
	if i < 0 {
		i += end - start
	}
	raw[start+i] ^= 1
	if err := os.WriteFile(logPath(sdir), raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// logSize is the length of the log of sdir.
func logSize(t *testing.T, sdir string) int64 {
	t.Helper()
	info, err := os.Stat(logPath(sdir))
	if err != nil {
		t.Fatal(err)
	}
	return info.Size()
}

func TestStorePutGetAcrossOpens(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenResultStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	key, payload := storeKey(1), testResult(42)
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
	if err := s2.Put(key, testResult(43)); !errors.Is(err, ErrResultMismatch) {
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
	stored, ok := store.read(jobs[0].Key())
	if !ok {
		t.Fatal("no stored result for the sweep's first row")
	}
	if err := store.Put(jobs[0].Key(), stored.payload); err != nil {
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

// payloadByte is the frame offset, from its end, of a payload byte: a
// digit in testResult's grid digest and in a wire result's last count.
const payloadByte = -sha256.Size - 3

// TestStoreCorruptionDetected pins verification at open and on read: a
// complete frame with flipped payload bytes is skipped and counted, the
// frames after it are still served, and a frame damaged after open is
// purged on its first read. Either key reads as a miss and takes a
// recomputed Put, which a later open serves.
func TestStoreCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	sdir := filepath.Join(dir, storeDirName)
	s := openTestStore(t, dir)
	early, late, after := storeKey(2), storeKey(5), storeKey(6)
	for i, key := range []Key{early, late, after} {
		if err := s.Put(key, testResult(2+i)); err != nil {
			t.Fatal(err)
		}
	}

	// Damage the first frame on disk, then open a fresh store (the first
	// one has the payload cached in memory).
	corruptFrame(t, sdir, early, payloadByte)
	s2 := openTestStore(t, dir)
	if st := s2.Stats(); st.Corrupt != 1 || st.Entries != 2 {
		t.Fatalf("after an open over a damaged frame: %+v, want 1 corrupt and 2 entries", st)
	}
	if _, ok := s2.Get(early); ok || s2.Has(early) {
		t.Fatal("corrupt frame served or indexed")
	}
	for i, key := range []Key{late, after} {
		if got, ok := s2.Get(key); !ok || !bytes.Equal(got, testResult(3+i)) {
			t.Fatalf("frame %d after the damaged one: %q, %v", i, got, ok)
		}
	}
	// A frame damaged after open fails its first read.
	s3 := openTestStore(t, dir)
	corruptFrame(t, sdir, late, payloadByte)
	if _, ok := s3.Get(late); ok || s3.Has(late) {
		t.Fatal("frame damaged after open served or still indexed")
	}
	if st := s3.Stats(); st.Corrupt != 2 || st.Entries != 1 {
		t.Fatalf("after a damaged read: %+v, want 2 corrupt and 1 entry", st)
	}
	// The keys are re-puttable after the purge (recompute path), and a
	// reopen serves the recomputed frames.
	for i, key := range []Key{early, late} {
		if err := s3.Put(key, testResult(2+i)); err != nil {
			t.Fatal(err)
		}
		if _, ok := s3.Get(key); !ok {
			t.Fatal("re-put after purge not served")
		}
	}
	s4 := openTestStore(t, dir)
	for i, key := range []Key{early, late, after} {
		if got, ok := s4.Get(key); !ok || !bytes.Equal(got, testResult(2+i)) {
			t.Fatalf("key %d after the recompute and a reopen: %q, %v", i, got, ok)
		}
	}
	if st := s4.Stats(); st.Corrupt != 2 || st.Entries != 3 {
		t.Fatalf("reopen after the recompute: %+v, want the 2 damaged frames skipped and 3 entries", st)
	}
}

// TestStoreWrongKeyFile pins the key under the checksum: a frame whose
// key has a flipped bit names another spec, and must not be served under
// either key.
func TestStoreWrongKeyFile(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir)
	key := storeKey(3)
	if err := s.Put(key, testResult(3)); err != nil {
		t.Fatal(err)
	}
	corruptFrame(t, filepath.Join(dir, storeDirName), key, 6+len(key)-1)
	alias := key
	alias[len(alias)-1] ^= 1
	s2 := openTestStore(t, dir)
	for _, k := range []Key{key, alias} {
		if _, ok := s2.Get(k); ok || s2.Has(k) {
			t.Fatalf("a frame with a flipped key bit served under %x", k[:4])
		}
	}
	if s2.Stats().Corrupt != 1 {
		t.Fatal("aliased frame not counted corrupt")
	}
}

// TestStorePutRefusesNonResults: a payload that is not a result is
// refused with ErrWire before anything is written, so no reader ever
// finds it.
func TestStorePutRefusesNonResults(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir)
	for i, payload := range []string{`not json`, `{"x":1}`, `{"grid_sha256":"00"}`, ``} {
		key := storeKey(byte(10 + i))
		if err := s.Put(key, []byte(payload)); !errors.Is(err, ErrWire) {
			t.Fatalf("Put(%q) = %v, want ErrWire", payload, err)
		}
		if s.Has(key) {
			t.Fatalf("Put(%q) left an entry", payload)
		}
	}
	if n := logSize(t, filepath.Join(dir, storeDirName)); n != 0 || s.Len() != 0 {
		t.Fatalf("refused puts left a log of %d bytes and %d entries", n, s.Len())
	}
	if st := s.Stats(); st != (StoreStats{}) {
		t.Fatalf("refused puts counted %+v", st)
	}
}

// TestStoreDecodeRejects: the store's decoder reads a wire result's
// summary and refuses, with ErrWire, a payload that is not a wire result
// with a 64-hex-digit grid digest, so a frame holding one is purged
// instead of served.
func TestStoreDecodeRejects(t *testing.T) {
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

// TestStoreConcurrentPutsFirstWriteWins: concurrent Puts of one key
// append one frame. Every Put returns after it is durable; the ones whose
// bytes differ from the winner's count as mismatches, and Get serves the
// winner's bytes.
func TestStoreConcurrentPutsFirstWriteWins(t *testing.T) {
	for _, distinct := range []bool{true, false} {
		dir := t.TempDir()
		s := openTestStore(t, dir)
		key := storeKey(7)
		payloads := [2][]byte{testResult(70), testResult(71)}
		if !distinct {
			payloads[1] = testResult(70)
		}
		var wg sync.WaitGroup
		errs := make([]error, 8)
		for g := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[g] = s.Put(key, payloads[g%2])
			}()
		}
		wg.Wait()
		var won []byte
		mismatched := 0
		for g, err := range errs {
			switch {
			case err == nil:
				if won != nil && !bytes.Equal(won, payloads[g%2]) {
					t.Fatalf("distinct=%v: both payloads were accepted", distinct)
				}
				won = payloads[g%2]
			case errors.Is(err, ErrResultMismatch):
				mismatched++
			default:
				t.Fatal(err)
			}
		}
		wantMismatch := 0
		if distinct {
			wantMismatch = 4
		}
		if st := s.Stats(); mismatched != wantMismatch || st.Mismatches != int64(wantMismatch) {
			t.Fatalf("distinct=%v: %d puts refused, store %+v; want %d mismatches", distinct, mismatched, st, wantMismatch)
		}
		if got, ok := s.Get(key); !ok || !bytes.Equal(got, won) {
			t.Fatalf("distinct=%v: Get = %q, want the winner's %q", distinct, got, won)
		}
		raw, err := os.ReadFile(logPath(filepath.Join(dir, storeDirName)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, encodeFrame(key, won)) {
			t.Fatalf("distinct=%v: the log holds %d bytes, want the winner's one frame", distinct, len(raw))
		}
	}
}

// TestStoreStatsMatchIndex: Stats keeps running totals; after puts, a
// purge, a recompute and reopens they equal a walk of the indexed frames.
func TestStoreStatsMatchIndex(t *testing.T) {
	dir := t.TempDir()
	sdir := filepath.Join(dir, storeDirName)
	bad := storeKey(9)
	appendFrame(t, sdir, bad, []byte(`{"x":1}`))
	check := func(s *ResultStore, when string, entries int) {
		t.Helper()
		s.mu.Lock()
		var walk int64
		for _, ref := range s.index {
			walk += int64(ref.n)
		}
		n := len(s.index)
		s.mu.Unlock()
		if st := s.Stats(); st.Entries != n || st.Bytes != walk || n != entries {
			t.Fatalf("%s: stats %+v, index walk %d entries and %d bytes, want %d entries", when, st, n, walk, entries)
		}
	}
	s := openTestStore(t, dir)
	check(s, "open over one undecodable frame", 1)
	for i := 0; i < 5; i++ {
		if err := s.Put(storeKey(byte(20+i)), testResult(1000*i)); err != nil {
			t.Fatal(err)
		}
	}
	check(s, "after five puts", 6)
	if _, ok := s.Get(bad); ok {
		t.Fatal("undecodable frame served")
	}
	check(s, "after the purge", 5)
	if err := s.Put(bad, testResult(9)); err != nil {
		t.Fatal(err)
	}
	check(s, "after the recompute", 6)
	s2 := openTestStore(t, dir)
	check(s2, "reopen", 6)
	if got, ok := s2.Get(bad); !ok || !bytes.Equal(got, testResult(9)) {
		t.Fatalf("reopen serves %q for the recomputed key", got)
	}
}

// TestStoreLogCrashRecovery simulates crashes at every byte of an append
// that was never acknowledged, and garbage after the last frame: each
// reopen serves every acknowledged result byte for byte, indexes no torn
// frame, truncates the log back to its acknowledged frames, and keeps a
// Put made after it across a further reopen.
func TestStoreLogCrashRecovery(t *testing.T) {
	src := t.TempDir()
	s := openTestStore(t, src)
	acked := map[Key][]byte{}
	for i := 0; i < 3; i++ {
		key, payload := storeKey(byte(30+i)), testResult(30+i)
		if err := s.Put(key, payload); err != nil {
			t.Fatal(err)
		}
		acked[key] = payload
	}
	good, err := os.ReadFile(logPath(filepath.Join(src, storeDirName)))
	if err != nil {
		t.Fatal(err)
	}
	torn := storeKey(40)
	next := encodeFrame(torn, testResult(40))
	var huge [frameHeader]byte
	copy(huge[:], next[:frameHeader])
	binary.BigEndian.PutUint32(huge[frameHeader-4:], maxFrame+1)

	var tails [][]byte
	for cut := 1; cut < len(next); cut++ {
		tails = append(tails, next[:cut])
	}
	tails = append(tails,
		[]byte("garbage after the last frame"),
		bytes.Repeat([]byte("garbage "), 32),
		bytes.Repeat([]byte{0}, 512),
		huge[:],
		append(append([]byte{}, next[:frameHeader]...), 0xff))
	for i, tail := range tails {
		dir := t.TempDir()
		sdir := filepath.Join(dir, storeDirName)
		if err := os.MkdirAll(sdir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(logPath(sdir), append(append([]byte{}, good...), tail...), 0o644); err != nil {
			t.Fatal(err)
		}
		s1, err := OpenResultStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		if s1.Len() != len(acked) || s1.Has(torn) {
			t.Fatalf("tail %d: %d entries indexed (torn key present: %v), want the %d acknowledged",
				i, s1.Len(), s1.Has(torn), len(acked))
		}
		for key, payload := range acked {
			if got, ok := s1.Get(key); !ok || !bytes.Equal(got, payload) {
				t.Fatalf("tail %d: acknowledged result %x reads %q, %v", i, key[:4], got, ok)
			}
		}
		if n := logSize(t, sdir); n != int64(len(good)) {
			t.Fatalf("tail %d: log is %d bytes after open, want %d", i, n, len(good))
		}
		later := storeKey(41)
		if err := s1.Put(later, testResult(41)); err != nil {
			t.Fatal(err)
		}
		if err := s1.Close(); err != nil {
			t.Fatal(err)
		}
		s2, err := OpenResultStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := s2.Get(later); !ok || !bytes.Equal(got, testResult(41)) {
			t.Fatalf("tail %d: a Put after the reopen did not survive another: %q, %v", i, got, ok)
		}
		if st := s2.Stats(); st.Entries != len(acked)+1 || st.Corrupt != 0 {
			t.Fatalf("tail %d: second reopen %+v", i, st)
		}
		if err := s2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDataDirBeforeResultLog opens a -data-dir that flagdispd wrote
// before the result log (testdata/v1-data-dir: three mauritius
// scenario-2 jobs, seeds 1–3; seed 1 stored and completed, seed 2
// failed with "boom", seed 3 stored but its completion frame never
// written). The journal replays as it did, and the version-1 result
// files read as misses, never as corrupt or mismatched: the fleet
// recomputes them to the single-process bytes and leaves the files
// alone.
func TestDataDirBeforeResultLog(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join("testdata", "v1-data-dir")
	if err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		dst := filepath.Join(dir, strings.TrimPrefix(path, src))
		if d.IsDir() {
			return os.MkdirAll(dst, 0o755)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(dst, raw, 0o644)
	}); err != nil {
		t.Fatal(err)
	}
	oldFiles, err := filepath.Glob(filepath.Join(dir, storeDirName, "[0-9a-f]*"))
	if err != nil || len(oldFiles) != 2 {
		t.Fatalf("fixture result files: %v (%v)", oldFiles, err)
	}
	sreq := wire.SweepRequest{Base: wire.RunRequest{Flag: "mauritius", Scenario: 2}, Seeds: []uint64{1, 2, 3}}
	jobs, want := localCanonical(t, sreq)

	f := startFleet(t, dir)
	defer f.stop(t)
	q, store := f.d.Queue(), f.d.Store()
	for i, wantDone := range []bool{true, true, false} {
		done, errMsg := q.Status(jobs[i].Key())
		if wantErr := map[bool]string{true: "boom"}[i == 1]; done != wantDone || errMsg != wantErr {
			t.Fatalf("seed %d replays as done=%v %q, want done=%v %q", i+1, done, errMsg, wantDone, wantErr)
		}
	}
	if st := q.Stats(); st.Recovered != 1 || st.Depth != 1 {
		t.Fatalf("replayed queue %+v, want the one recovered pending job", st)
	}
	if st := store.Stats(); st != (StoreStats{}) {
		t.Fatalf("store over version-1 files: %+v, want empty", st)
	}

	// The sweep goes in before any worker runs: a worker started first
	// could finish the recovered seed-3 job before the sweep reads the
	// store, and that row would read warm. The worker starts once the
	// dispatcher has taken the sweep's jobs (seed 1 enqueued, seeds 2
	// and 3 deduped onto the failed and the recovered job).
	type swept struct {
		resp SweepFleetResponse
		err  error
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sweepDone := make(chan swept, 1)
	go func() {
		resp, err := sendSweep(ctx, f.srv.URL, sreq)
		sweepDone <- swept{resp, err}
	}()
	for st := q.Stats(); st.Enqueued+st.Deduped < 3; st = q.Stats() {
		select {
		case got := <-sweepDone:
			t.Fatalf("the sweep answered before any worker ran: %+v (%v)", got.resp, got.err)
		case <-time.After(time.Millisecond):
		}
	}
	stopWorkers := startWorkers(t, f, 1, nil)
	defer stopWorkers()
	got := <-sweepDone
	if got.err != nil {
		t.Fatal(got.err)
	}
	resp := got.resp
	if resp.Warm != 0 || resp.Failed != 1 || resp.Runs[1].Err != "boom" {
		t.Fatalf("sweep over the old data dir: %+v", resp)
	}
	for _, i := range []int{0, 2} {
		if stored, ok := store.Get(jobs[i].Key()); !ok || !bytes.Equal(stored, want[jobs[i].Key()]) {
			t.Fatalf("seed %d: stored %q, want the single-process bytes", i+1, stored)
		}
	}
	if st := store.Stats(); st.Corrupt != 0 || st.Mismatches != 0 || st.Entries != 2 {
		t.Fatalf("store after the recompute: %+v, want 2 entries, nothing corrupt or mismatched", st)
	}
	for _, path := range oldFiles {
		if info, err := os.Stat(path); err != nil || info.Size() != 1154 {
			t.Fatalf("the version-1 file %s was disturbed: %v", path, err)
		}
	}
}
