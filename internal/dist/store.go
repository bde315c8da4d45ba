package dist

// ResultStore is the cluster's result tier: one append-only, checksummed
// log of results per store directory, each frame filed under the spec's
// content address and found again through an in-memory index. It
// outlives processes — a dispatcher restarted on the same -data-dir
// serves the same warm set. A store directory has one owner process at a
// time, as the queue journal beside it does. The store is the only
// record of a finished job: what a stored result says is decoded once,
// by decodeResult, into the entry every reader uses.
//
// Log format: frames back to back, each "FDRS" | u16 version | key[32] |
// u32 payloadLen | payload | sha256(key | payload). The key is stored
// once, so the checksum covers it: a flipped key bit must not file one
// spec's result under another. Open streams the log once. It indexes the
// last verified frame of each key (a key has a later frame only after its
// earlier one was purged), skips a complete frame whose checksum fails
// and counts it as corrupt, and ends the log at the first frame whose
// header is unreadable, claims more than maxFrame, or runs past the end
// of the file — a torn append that was never acknowledged — truncating
// it there. A frame cut from the log that way is a miss, recomputed on
// demand. A read verifies its frame again and decodes the payload as a
// result; a failure purges the key from the index, counts it, and
// reports a miss — the caller recomputes, which is always safe for
// content-addressed pure results.
//
// Put is first-write-wins, and nothing sees a result before it is
// durable: the frame is appended and fsynced before its key is published.
// A second Put for a key whose stored bytes differ is a determinism
// violation (two workers disagreed about a pure function); the store
// keeps the original, counts the mismatch, and returns an error so the
// dispatcher can log the offender.

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"flagsim/internal/sweep"
	"flagsim/internal/wire"
)

const (
	storeDirName = "results"
	storeLogName = "store.log"
	storeMagic   = "FDRS"
	// storeVersion 1 was a file per result, with the key in its name and
	// the checksum over the payload alone; no reader of version 2 opens
	// those files.
	storeVersion  = 2
	frameHeader   = 4 + 2 + sha256.Size + 4 // magic, version, key, payload length
	storeOverhead = frameHeader + sha256.Size
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
	// Corrupt counts frames that failed verification, at open or on a
	// read, and were dropped from the index.
	Corrupt int64 `json:"corrupt"`
	// Mismatches counts determinism violations (see ErrResultMismatch).
	Mismatches int64 `json:"mismatches"`
}

// entry is one stored result: its canonical bytes and the summary a
// sweep row reads from them.
type entry struct {
	payload []byte
	sweep.Summary
}

// decodeResult is the one decoder of a stored result: the payload must
// decode strictly as a wire.SimResult whose grid digest is 64 lower-case
// hex digits, the form MarshalResult writes and a sweep row writes back
// from the summary. Failures wrap ErrWire.
func decodeResult(payload []byte) (entry, error) {
	var res wire.SimResult
	if err := strictUnmarshal(payload, &res); err != nil {
		return entry{}, err
	}
	grid, err := ParseKey(res.GridSHA256)
	if err != nil {
		return entry{}, err
	}
	if hex.EncodeToString(grid[:]) != res.GridSHA256 {
		return entry{}, fmt.Errorf("%w: grid digest %q is not lower-case hex", ErrWire, res.GridSHA256)
	}
	return entry{payload: payload, Summary: sweep.Summary{
		Makespan: time.Duration(res.MakespanNS), Events: res.Events, GridSHA256: grid,
	}}, nil
}

// frameRef locates one frame in the log: its first byte and its payload
// length.
type frameRef struct {
	off int64
	n   int
}

// ResultStore is a disk-backed content-addressed result store. It is
// safe for concurrent use.
type ResultStore struct {
	f *os.File

	mu sync.Mutex
	// index maps present keys to their frames; mem holds the entry of
	// each key stored or read since open (the index alone answers Has
	// and keeps Open cheap for large stores). bytes sums the payload
	// lengths the index holds.
	index map[Key]frameRef
	mem   map[Key]entry
	bytes int64

	// appendMu orders appends. end is the log's length (an int64, so a
	// log past 2 GiB works on 32-bit platforms too); inflight holds, for
	// each frame appended but not yet durable and published, a channel
	// closed once it is one or the other.
	appendMu sync.Mutex
	end      int64
	inflight map[Key]chan struct{}

	hits, misses, corrupt, mismatches atomic.Int64
}

// OpenResultStore opens (creating if needed) the store under dir,
// scanning its log into the index.
func OpenResultStore(dir string) (*ResultStore, error) {
	sdir := filepath.Join(dir, storeDirName)
	if err := os.MkdirAll(sdir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(sdir, storeLogName)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	created := err == nil
	if errors.Is(err, os.ErrExist) {
		f, err = os.OpenFile(path, os.O_RDWR, 0)
	}
	if err != nil {
		return nil, err
	}
	if created {
		// The one directory fsync the store makes: the log's name is
		// durable before any frame in it is acknowledged.
		err = syncDir(sdir)
	}
	s := &ResultStore{f: f, index: make(map[Key]frameRef), mem: make(map[Key]entry),
		inflight: make(map[Key]chan struct{})}
	if err == nil {
		err = s.scan()
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("dist: open result log %s: %w", path, err)
	}
	return s, nil
}

// scan streams the log once, indexing every verified frame, and
// truncates it after the last complete one. Nothing is allocated by a
// frame's length: the payload streams through the checksum. It runs
// before the store is shared, so it indexes without taking s.mu.
func (s *ResultStore) scan() error {
	info, err := s.f.Stat()
	if err != nil {
		return err
	}
	var (
		br   = bufio.NewReaderSize(s.f, 64<<10)
		buf  = make([]byte, 32<<10)
		h    = sha256.New()
		hdr  [frameHeader]byte
		want [sha256.Size]byte
		got  [sha256.Size]byte
		off  int64
	)
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if !isEOF(err) {
				return err
			}
			break // the end of the log, or a torn header
		}
		key, n, ok := parseHeader(hdr[:])
		if !ok {
			break
		}
		h.Reset()
		h.Write(key[:])
		copied, err := io.CopyBuffer(h, io.LimitReader(br, int64(n)), buf)
		if err != nil {
			return err
		}
		if copied < int64(n) {
			break // a torn payload
		}
		if _, err := io.ReadFull(br, want[:]); err != nil {
			if !isEOF(err) {
				return err
			}
			break // a torn checksum
		}
		ref := frameRef{off: off, n: n}
		off += int64(storeOverhead + n)
		if !bytes.Equal(h.Sum(got[:0]), want[:]) {
			s.corrupt.Add(1)
			continue
		}
		s.indexLocked(key, ref)
	}
	s.end = off
	if off == info.Size() {
		return nil
	}
	if err := s.f.Truncate(off); err != nil {
		return err
	}
	return s.f.Sync()
}

func isEOF(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
}

// parseHeader reads a frame header; ok is false for a header no writer
// of this version produces.
func parseHeader(hdr []byte) (key Key, n int, ok bool) {
	if string(hdr[:4]) != storeMagic || binary.BigEndian.Uint16(hdr[4:6]) != storeVersion {
		return key, 0, false
	}
	copy(key[:], hdr[6:])
	size := binary.BigEndian.Uint32(hdr[6+len(key):])
	if size > maxFrame {
		return key, 0, false
	}
	return key, int(size), true
}

// Close releases the log. Every acknowledged Put is already durable; the
// store must not be used after.
func (s *ResultStore) Close() error { return s.f.Close() }

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
	entries, bytes := len(s.index), s.bytes
	s.mu.Unlock()
	return StoreStats{
		Entries: entries, Bytes: bytes,
		Hits: s.hits.Load(), Misses: s.misses.Load(),
		Corrupt: s.corrupt.Load(), Mismatches: s.mismatches.Load(),
	}
}

// Get returns the stored payload for key. Every disk read is verified;
// a frame that fails verification is purged and reported as a miss.
// The returned slice is shared — callers must not mutate it.
func (s *ResultStore) Get(key Key) ([]byte, bool) {
	e, ok := s.read(key)
	if ok {
		s.hits.Add(1)
	} else {
		s.misses.Add(1)
	}
	return e.payload, ok
}

// read is Get returning the whole entry, without the hit and miss
// counts, for a caller that counts what it serves itself (served).
func (s *ResultStore) read(key Key) (entry, bool) {
	s.mu.Lock()
	if e, ok := s.mem[key]; ok {
		s.mu.Unlock()
		return e, true
	}
	ref, present := s.index[key]
	s.mu.Unlock()
	if !present {
		return entry{}, false
	}

	e, err := s.readFrame(key, ref)
	if err != nil {
		s.purge(key, ref)
		return entry{}, false
	}
	s.mu.Lock()
	if s.index[key] == ref {
		s.mem[key] = e
	}
	s.mu.Unlock()
	return e, true
}

// readFrame reads key's frame at ref, verifies it and decodes its
// payload.
func (s *ResultStore) readFrame(key Key, ref frameRef) (entry, error) {
	raw := make([]byte, storeOverhead+ref.n)
	if _, err := s.f.ReadAt(raw, ref.off); err != nil {
		return entry{}, err
	}
	if k, n, ok := parseHeader(raw); !ok || k != key || n != ref.n {
		return entry{}, errors.New("frame header does not match the index")
	}
	payload := raw[frameHeader : frameHeader+ref.n]
	if sum := frameSum(key, payload); !bytes.Equal(sum[:], raw[frameHeader+ref.n:]) {
		return entry{}, errors.New("frame checksum mismatch")
	}
	return decodeResult(payload)
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
// takes it over, and the caller must not modify it afterwards. Put
// returns once the result is durable, and only then can any reader see
// it.
func (s *ResultStore) Put(key Key, payload []byte) error {
	e, err := decodeResult(payload)
	if err != nil {
		return err
	}
	return s.put(key, e)
}

// put is Put for an entry already decoded. Under appendMu it checks the
// published keys and the frames in flight, then appends at the log's
// end; it syncs outside the lock and publishes after the sync. A Put of
// a key whose frame is in flight waits for that frame, then checks
// again.
func (s *ResultStore) put(key Key, e entry) error {
	if len(e.payload) > maxFrame {
		// An open would end the log at such a frame.
		return fmt.Errorf("%w: result of %d bytes exceeds %d", ErrWire, len(e.payload), maxFrame)
	}
	s.appendMu.Lock()
	for {
		if done, ok := s.inflight[key]; ok {
			s.appendMu.Unlock()
			<-done
			s.appendMu.Lock()
			continue
		}
		existing, ok := s.read(key)
		if !ok {
			break
		}
		s.appendMu.Unlock()
		if bytes.Equal(existing.payload, e.payload) {
			return nil
		}
		s.mismatches.Add(1)
		return fmt.Errorf("%w: key %s", ErrResultMismatch, hex.EncodeToString(key[:]))
	}
	ref := frameRef{off: s.end, n: len(e.payload)}
	if _, err := s.f.WriteAt(encodeFrame(key, e.payload), ref.off); err != nil {
		// A partial frame must not sit in front of the next one. Should
		// the truncate fail too, the next append overwrites it, and an
		// open ends the log there.
		_ = s.f.Truncate(ref.off)
		s.appendMu.Unlock()
		return err
	}
	s.end += int64(storeOverhead + ref.n)
	done := make(chan struct{})
	s.inflight[key] = done
	s.appendMu.Unlock()

	err := s.f.Sync()
	if err == nil {
		s.mu.Lock()
		s.indexLocked(key, ref)
		s.mem[key] = e
		s.mu.Unlock()
	}
	// A frame whose sync failed stays unpublished. Its bytes are a
	// verified result all the same, so a later open may index it.
	s.appendMu.Lock()
	delete(s.inflight, key)
	s.appendMu.Unlock()
	close(done)
	return err
}

// indexLocked points key at ref and keeps the byte total; s.mu must be
// held.
func (s *ResultStore) indexLocked(key Key, ref frameRef) {
	if old, ok := s.index[key]; ok {
		s.bytes -= int64(old.n)
	}
	s.index[key] = ref
	s.bytes += int64(ref.n)
}

// purge drops a key whose frame at ref failed verification, and counts
// it, unless the index no longer points there (a concurrent read purged
// it first).
func (s *ResultStore) purge(key Key, ref frameRef) {
	s.mu.Lock()
	cur, ok := s.index[key]
	ok = ok && cur == ref
	if ok {
		delete(s.index, key)
		delete(s.mem, key)
		s.bytes -= int64(ref.n)
	}
	s.mu.Unlock()
	if ok {
		s.corrupt.Add(1)
	}
}

// frameSum is a frame's checksum: SHA-256 over its key and payload.
func frameSum(key Key, payload []byte) [sha256.Size]byte {
	h := sha256.New()
	h.Write(key[:])
	h.Write(payload)
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// encodeFrame frames payload as key's log frame.
func encodeFrame(key Key, payload []byte) []byte {
	buf := make([]byte, 0, storeOverhead+len(payload))
	buf = append(buf, storeMagic...)
	buf = binary.BigEndian.AppendUint16(buf, storeVersion)
	buf = append(buf, key[:]...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	sum := frameSum(key, payload)
	return append(buf, sum[:]...)
}
