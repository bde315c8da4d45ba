package dist

// ResultStore is the cluster's second cache tier: one fsynced,
// checksummed file per result, named by the spec's content address. It
// outlives processes and machines — any dispatcher pointed at the same
// directory serves the same warm set, and so does any worker sharing a
// -cache-dir (DiskTier keeps the same payloads in its own directory).
// It is the only record of a finished job: what a stored result says is
// decoded once, by decodeResult, into the entry every reader uses.
//
// File format: "FDRS" | u16 version | key[32] | u32 payloadLen |
// payload | sha256(payload). The embedded key must match the filename,
// the checksum must match the payload and the payload must decode as a
// result, or Get treats the file as corrupt: it is deleted, counted, and
// reported as a miss — the caller recomputes, which is always safe for
// content-addressed pure results.
//
// Put is first-write-wins. A second Put for a key whose stored bytes
// differ is a determinism violation (two workers disagreed about a pure
// function); the store keeps the original, counts the mismatch, and
// returns an error so the dispatcher can log the offender.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"flagsim/internal/wire"
)

const (
	storeDirName  = "results"
	storeMagic    = "FDRS"
	storeVersion  = 1
	storeOverhead = 4 + 2 + sha256.Size + 4 + sha256.Size // header + trailer around the payload
)

// ErrResultMismatch reports a Put whose bytes differ from what the store
// already holds for that key — a broken determinism contract.
var ErrResultMismatch = errors.New("dist: result bytes differ from stored result for the same spec")

// StoreStats is a snapshot of the store's counters.
type StoreStats struct {
	// Entries is the number of keys currently present.
	Entries int `json:"entries"`
	// Bytes is the total payload bytes across entries (payload only, not
	// framing).
	Bytes int64 `json:"bytes"`
	// Hits and Misses count Get outcomes over the store's open lifetime.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Corrupt counts files that failed verification and were removed.
	Corrupt int64 `json:"corrupt"`
	// Mismatches counts determinism violations (see ErrResultMismatch).
	Mismatches int64 `json:"mismatches"`
}

// summary is what a sweep row reads from a stored result: its makespan,
// its event count and its grid digest, kept as the hex string the row
// carries.
type summary struct {
	makespanNS int64
	events     uint64
	gridSHA256 string
}

// entry is one stored result: its canonical bytes and their summary.
type entry struct {
	payload []byte
	summary
}

// decodeResult is the one decoder of a stored result: the payload must
// decode strictly as a wire.SimResult whose grid digest is 64 hex
// digits. Failures wrap ErrWire.
func decodeResult(payload []byte) (entry, error) {
	var res wire.SimResult
	if err := strictUnmarshal(payload, &res); err != nil {
		return entry{}, err
	}
	if _, err := ParseKey(res.GridSHA256); err != nil {
		return entry{}, err
	}
	return entry{payload: payload, summary: summary{
		makespanNS: res.MakespanNS, events: res.Events, gridSHA256: res.GridSHA256,
	}}, nil
}

// ResultStore is a disk-backed content-addressed result store. It is
// safe for concurrent use.
type ResultStore struct {
	dir string

	mu sync.Mutex
	// index maps present keys to payload size; mem holds the entry of
	// each key stored or read since open (the index alone answers Has and
	// keeps Open cheap for large stores).
	index map[Key]int64
	mem   map[Key]entry

	hits, misses, corrupt, mismatches atomic.Int64
}

// OpenResultStore opens (creating if needed) the store under dir,
// scanning existing entries into the index without reading payloads.
func OpenResultStore(dir string) (*ResultStore, error) {
	return openStore(filepath.Join(dir, storeDirName))
}

// openStore opens the store whose entry files live in sdir.
func openStore(sdir string) (*ResultStore, error) {
	if err := os.MkdirAll(sdir, 0o755); err != nil {
		return nil, err
	}
	s := &ResultStore{dir: sdir, index: make(map[Key]int64), mem: make(map[Key]entry)}
	entries, err := os.ReadDir(sdir)
	if err != nil {
		return nil, err
	}
	for _, ent := range entries {
		if ent.IsDir() {
			continue
		}
		key, err := ParseKey(ent.Name())
		if err != nil {
			continue // temp files and strays are not entries
		}
		info, err := ent.Info()
		if err != nil {
			continue
		}
		if info.Size() < storeOverhead {
			// Too short to be a valid entry; treat like any corrupt file.
			os.Remove(filepath.Join(sdir, ent.Name()))
			s.corrupt.Add(1)
			continue
		}
		s.index[key] = info.Size() - storeOverhead
	}
	return s, nil
}

// Len returns the number of keys present.
func (s *ResultStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Has reports whether key is present, without reading or verifying the
// payload (verification happens on Get).
func (s *ResultStore) Has(key Key) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.index[key]
	return ok
}

// Stats returns a snapshot of the store's counters.
func (s *ResultStore) Stats() StoreStats {
	s.mu.Lock()
	entries := len(s.index)
	var bytes int64
	for _, n := range s.index {
		bytes += n
	}
	s.mu.Unlock()
	return StoreStats{
		Entries: entries, Bytes: bytes,
		Hits: s.hits.Load(), Misses: s.misses.Load(),
		Corrupt: s.corrupt.Load(), Mismatches: s.mismatches.Load(),
	}
}

// Get returns the stored payload for key. Every disk read is verified;
// a file that fails verification is deleted and reported as a miss.
// The returned slice is shared — callers must not mutate it.
func (s *ResultStore) Get(key Key) ([]byte, bool) {
	e, ok := s.get(key)
	return e.payload, ok
}

// get is Get returning the whole entry.
func (s *ResultStore) get(key Key) (entry, bool) {
	e, ok := s.read(key)
	if ok {
		s.hits.Add(1)
	} else {
		s.misses.Add(1)
	}
	return e, ok
}

// read is get without the hit and miss counts, for a caller that counts
// what it serves itself (served).
func (s *ResultStore) read(key Key) (entry, bool) {
	s.mu.Lock()
	if e, ok := s.mem[key]; ok {
		s.mu.Unlock()
		return e, true
	}
	_, present := s.index[key]
	s.mu.Unlock()
	if !present {
		return entry{}, false
	}

	path := s.path(key)
	raw, err := os.ReadFile(path)
	var e entry
	if err == nil {
		e, err = decodeEntry(key, raw)
	}
	if err != nil {
		s.drop(key, path)
		return entry{}, false
	}
	s.mu.Lock()
	s.mem[key] = e
	s.mu.Unlock()
	return e, true
}

// served counts results answered from what read returned as hits, and
// results asked for but absent as misses.
func (s *ResultStore) served(hits, misses int) {
	s.hits.Add(int64(hits))
	s.misses.Add(int64(misses))
}

// Put stores payload under key, first-write-wins. A payload that is not
// a result (decodeResult) is refused with ErrWire before anything is
// written. Storing different bytes under an existing key returns
// ErrResultMismatch and keeps the original. Its first-write check is no
// lookup: it counts as neither a hit nor a miss. A stored payload is
// kept, not copied, as the in-memory copy that Get shares: the store
// takes it over, and the caller must not modify it afterwards.
func (s *ResultStore) Put(key Key, payload []byte) error {
	e, err := decodeResult(payload)
	if err != nil {
		return err
	}
	return s.put(key, e)
}

// put is Put for an entry already decoded.
func (s *ResultStore) put(key Key, e entry) error {
	if existing, ok := s.read(key); ok {
		if bytes.Equal(existing.payload, e.payload) {
			return nil
		}
		s.mismatches.Add(1)
		return fmt.Errorf("%w: key %s", ErrResultMismatch, hex.EncodeToString(key[:]))
	}
	if err := writeFileAtomic(s.path(key), encodeEntry(key, e.payload)); err != nil {
		return err
	}
	s.mu.Lock()
	s.index[key] = int64(len(e.payload))
	s.mem[key] = e
	s.mu.Unlock()
	return nil
}

// drop removes a failed entry from disk and index.
func (s *ResultStore) drop(key Key, path string) {
	os.Remove(path)
	s.mu.Lock()
	delete(s.index, key)
	delete(s.mem, key)
	s.mu.Unlock()
	s.corrupt.Add(1)
}

func (s *ResultStore) path(key Key) string {
	return filepath.Join(s.dir, hex.EncodeToString(key[:]))
}

// encodeEntry frames payload as key's entry file.
func encodeEntry(key Key, payload []byte) []byte {
	buf := make([]byte, 0, storeOverhead+len(payload))
	buf = append(buf, storeMagic...)
	buf = binary.BigEndian.AppendUint16(buf, storeVersion)
	buf = append(buf, key[:]...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	sum := sha256.Sum256(payload)
	return append(buf, sum[:]...)
}

// decodeEntry verifies one entry file against its expected key and
// decodes its payload.
func decodeEntry(key Key, raw []byte) (entry, error) {
	if len(raw) < storeOverhead {
		return entry{}, fmt.Errorf("entry of %d bytes", len(raw))
	}
	if string(raw[:4]) != storeMagic {
		return entry{}, fmt.Errorf("bad magic %q", raw[:4])
	}
	if v := binary.BigEndian.Uint16(raw[4:6]); v != storeVersion {
		return entry{}, fmt.Errorf("unsupported version %d", v)
	}
	raw = raw[6:]
	if !bytes.Equal(raw[:sha256.Size], key[:]) {
		return entry{}, errors.New("embedded key does not match filename")
	}
	raw = raw[sha256.Size:]
	n := binary.BigEndian.Uint32(raw[:4])
	raw = raw[4:]
	if int(n) != len(raw)-sha256.Size {
		return entry{}, fmt.Errorf("payload length %d does not match file size", n)
	}
	payload := raw[:n]
	sum := sha256.Sum256(payload)
	if !bytes.Equal(sum[:], raw[n:]) {
		return entry{}, errors.New("payload checksum mismatch")
	}
	return decodeResult(payload)
}
