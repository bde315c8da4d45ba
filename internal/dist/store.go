package dist

// ResultStore is the cluster's second cache tier: one fsynced,
// checksummed file per result, named by the spec's content address. It
// outlives processes and machines — any dispatcher pointed at the same
// directory serves the same warm set, and so does any worker sharing a
// -cache-dir (DiskTier keeps the same payloads in its own directory).
//
// File format: "FDRS" | u16 version | key[32] | u32 payloadLen |
// payload | sha256(payload). The embedded key must match the filename
// and the checksum must match the payload, or Get treats the file as
// corrupt: it is deleted, counted, and reported as a miss — the caller
// recomputes, which is always safe for content-addressed pure results.
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

// ResultStore is a disk-backed content-addressed byte store. It is safe
// for concurrent use.
type ResultStore struct {
	dir string

	mu sync.Mutex
	// index maps present keys to payload size; payloads themselves are
	// cached in mem lazily on first Get (the index alone answers Has and
	// keeps Open cheap for large stores).
	index map[Key]int64
	mem   map[Key][]byte

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
	s := &ResultStore{dir: sdir, index: make(map[Key]int64), mem: make(map[Key][]byte)}
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
	data, ok := s.read(key)
	if ok {
		s.hits.Add(1)
	} else {
		s.misses.Add(1)
	}
	return data, ok
}

// read is Get without the hit and miss counts, for a caller that serves
// repeated reads from its own copy and counts them itself (served).
func (s *ResultStore) read(key Key) ([]byte, bool) {
	s.mu.Lock()
	if data, ok := s.mem[key]; ok {
		s.mu.Unlock()
		return data, true
	}
	_, present := s.index[key]
	s.mu.Unlock()
	if !present {
		return nil, false
	}

	path := s.path(key)
	raw, err := os.ReadFile(path)
	if err != nil {
		s.drop(key, path)
		return nil, false
	}
	payload, err := decodeEntry(key, raw)
	if err != nil {
		s.drop(key, path)
		return nil, false
	}
	s.mu.Lock()
	s.mem[key] = payload
	s.mu.Unlock()
	return payload, true
}

// served counts results answered from a caller's copy of what read
// returned as hits, and results asked for but absent as misses.
func (s *ResultStore) served(hits, misses int) {
	s.hits.Add(int64(hits))
	s.misses.Add(int64(misses))
}

// Put stores payload under key, first-write-wins. Storing different
// bytes under an existing key returns ErrResultMismatch and keeps the
// original. Its first-write check is no lookup: it counts as neither a
// hit nor a miss. A stored payload is kept, not copied, as the
// in-memory copy that Get shares: the store takes it over, and the
// caller must not modify it afterwards.
func (s *ResultStore) Put(key Key, payload []byte) error {
	if existing, ok := s.read(key); ok {
		if bytes.Equal(existing, payload) {
			return nil
		}
		s.mismatches.Add(1)
		return fmt.Errorf("%w: key %s", ErrResultMismatch, hex.EncodeToString(key[:]))
	}

	buf := make([]byte, 0, storeOverhead+len(payload))
	buf = append(buf, storeMagic...)
	buf = binary.BigEndian.AppendUint16(buf, storeVersion)
	buf = append(buf, key[:]...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	sum := sha256.Sum256(payload)
	buf = append(buf, sum[:]...)

	tmp, err := os.CreateTemp(s.dir, "put*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, s.path(key)); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := syncDir(s.dir); err != nil {
		return err
	}

	s.mu.Lock()
	s.index[key] = int64(len(payload))
	s.mem[key] = payload
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

// decodeEntry verifies one entry file against its expected key and
// returns the payload.
func decodeEntry(key Key, raw []byte) ([]byte, error) {
	if len(raw) < storeOverhead {
		return nil, fmt.Errorf("entry of %d bytes", len(raw))
	}
	if string(raw[:4]) != storeMagic {
		return nil, fmt.Errorf("bad magic %q", raw[:4])
	}
	if v := binary.BigEndian.Uint16(raw[4:6]); v != storeVersion {
		return nil, fmt.Errorf("unsupported version %d", v)
	}
	raw = raw[6:]
	if !bytes.Equal(raw[:sha256.Size], key[:]) {
		return nil, errors.New("embedded key does not match filename")
	}
	raw = raw[sha256.Size:]
	n := binary.BigEndian.Uint32(raw[:4])
	raw = raw[4:]
	if int(n) != len(raw)-sha256.Size {
		return nil, fmt.Errorf("payload length %d does not match file size", n)
	}
	payload := raw[:n]
	sum := sha256.Sum256(payload)
	if !bytes.Equal(sum[:], raw[n:]) {
		return nil, errors.New("payload checksum mismatch")
	}
	return payload, nil
}
