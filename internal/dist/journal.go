package dist

// The queue's durability layer: an append-only journal of
// enqueue/complete operations plus a periodically-rewritten snapshot.
// Enqueue and failed-completion frames are fsynced before they are
// acknowledged; an ok completion's frame is not, because the stored
// result is its durable record (see Queue.Complete). Recovery loads the
// snapshot, replays the journal on top, and tolerates a torn final frame
// (a crash mid-append) by truncating it — every fsynced frame before a
// torn tail survives.
//
// On-disk layout inside the dispatcher's data directory:
//
//	queue.snap         atomic JSON snapshot of outstanding jobs
//	queue.journal      "FDQJ" | u16 version | u16 flags, then frames
//	results/store.log  the content-addressed result log (store.go)
//
// Each journal frame is u32 length | u8 op | payload, where length
// covers op+payload. opEnqueue's payload is the job's JSON; opComplete's
// is key[32] | u8 ok | error message. Replay applies the queue's own
// rule: an enqueue frame makes a key the queue does not hold pending, an
// ok completion drops the job and a failed one keeps it with its error.
// So an enqueue after an ok completion (a purged result re-admitted)
// is pending again. An enqueue of a held key, and a completion of a key
// not held (a snapshot already dropped it), are no-ops.

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

const (
	journalName    = "queue.journal"
	snapshotName   = "queue.snap"
	journalMagic   = "FDQJ"
	journalVersion = 1

	opEnqueue  byte = 1
	opComplete byte = 2

	// maxFrame bounds one journal frame and one stored result's payload,
	// the size of the largest report body the dispatcher reads. A journal
	// frame claiming more is corrupt, not merely torn (no legitimate job
	// encodes anywhere near this large); a result-log frame claiming more
	// ends the log.
	maxFrame = 1 << 20
)

// ErrJournal marks a structurally corrupt journal or snapshot — bad
// magic, impossible frame length, or an undecodable snapshot. A torn
// tail is NOT this error; it is repaired silently.
var ErrJournal = errors.New("dist: corrupt queue journal")

// journalRecord is one replayed operation.
type journalRecord struct {
	op  byte
	job Job    // opEnqueue
	key Key    // opComplete
	ok  bool   // opComplete
	msg string // opComplete: error message when !ok
}

// journal is the open append handle. All appends are explicitly synced
// by the caller (sync) so a batch of enqueues costs one fsync.
type journal struct {
	f *os.File
}

// openJournal opens (creating if absent) the journal in dir, replays
// every intact frame, repairs a torn tail by truncating it, and leaves
// the handle positioned for appends.
func openJournal(dir string) (*journal, []journalRecord, error) {
	path := filepath.Join(dir, journalName)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if info.Size() == 0 {
		var hdr [8]byte
		copy(hdr[:4], journalMagic)
		binary.BigEndian.PutUint16(hdr[4:6], journalVersion)
		if _, err := f.Write(hdr[:]); err != nil {
			f.Close()
			return nil, nil, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, err
		}
		return &journal{f: f}, nil, nil
	}

	var hdr [8]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("%w: short header", ErrJournal)
	}
	if string(hdr[:4]) != journalMagic {
		f.Close()
		return nil, nil, fmt.Errorf("%w: bad magic %q", ErrJournal, hdr[:4])
	}
	if v := binary.BigEndian.Uint16(hdr[4:6]); v != journalVersion {
		f.Close()
		return nil, nil, fmt.Errorf("%w: unsupported version %d", ErrJournal, v)
	}

	var recs []journalRecord
	good := int64(len(hdr)) // offset after the last intact frame
	for {
		var lenBuf [4]byte
		if _, err := io.ReadFull(f, lenBuf[:]); err != nil {
			break // clean EOF or torn length word — either way, stop here
		}
		n := binary.BigEndian.Uint32(lenBuf[:])
		if n == 0 || n > maxFrame {
			f.Close()
			return nil, nil, fmt.Errorf("%w: frame length %d at offset %d", ErrJournal, n, good)
		}
		frame := make([]byte, n)
		if _, err := io.ReadFull(f, frame); err != nil {
			break // torn payload: the append never completed
		}
		rec, err := decodeFrame(frame)
		if err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("%w: offset %d: %v", ErrJournal, good, err)
		}
		recs = append(recs, rec)
		good += int64(4 + n)
	}
	if err := f.Truncate(good); err != nil {
		f.Close()
		return nil, nil, err
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	return &journal{f: f}, recs, nil
}

func decodeFrame(frame []byte) (journalRecord, error) {
	op, payload := frame[0], frame[1:]
	switch op {
	case opEnqueue:
		job, err := DecodeJob(payload)
		if err != nil {
			return journalRecord{}, err
		}
		return journalRecord{op: op, job: job}, nil
	case opComplete:
		if len(payload) < len(Key{})+1 {
			return journalRecord{}, fmt.Errorf("complete frame of %d bytes", len(payload))
		}
		var rec journalRecord
		rec.op = op
		copy(rec.key[:], payload)
		rec.ok = payload[len(rec.key)] != 0
		rec.msg = string(payload[len(rec.key)+1:])
		return rec, nil
	default:
		return journalRecord{}, fmt.Errorf("unknown op %d", op)
	}
}

// appendEnqueue stages one enqueue frame; not durable until sync.
func (j *journal) appendEnqueue(job Job) error {
	payload, err := json.Marshal(job)
	if err != nil {
		return err
	}
	return j.appendFrame(opEnqueue, payload)
}

// appendComplete stages one completion frame; not durable until sync.
func (j *journal) appendComplete(key Key, ok bool, msg string) error {
	payload := make([]byte, 0, len(key)+1+len(msg))
	payload = append(payload, key[:]...)
	if ok {
		payload = append(payload, 1)
	} else {
		payload = append(payload, 0)
	}
	payload = append(payload, msg...)
	return j.appendFrame(opComplete, payload)
}

func (j *journal) appendFrame(op byte, payload []byte) error {
	buf := make([]byte, 0, 4+1+len(payload))
	buf = binary.BigEndian.AppendUint32(buf, uint32(1+len(payload)))
	buf = append(buf, op)
	buf = append(buf, payload...)
	_, err := j.f.Write(buf)
	return err
}

// sync makes every staged frame durable. Enqueue acknowledgements must
// not be sent before this returns.
func (j *journal) sync() error { return j.f.Sync() }

// reset truncates the journal back to an empty (header-only) state,
// called after a snapshot has durably captured everything it held.
func (j *journal) reset() error {
	if err := j.f.Truncate(8); err != nil {
		return err
	}
	if _, err := j.f.Seek(8, io.SeekStart); err != nil {
		return err
	}
	return j.f.Sync()
}

func (j *journal) close() error { return j.f.Close() }

// snapshotFile is the JSON snapshot of every outstanding (not yet
// completed) job at compaction time.
type snapshotFile struct {
	Version int   `json:"version"`
	Jobs    []Job `json:"jobs"`
}

// writeSnapshot atomically replaces the snapshot.
func writeSnapshot(dir string, jobs []Job) error {
	data, err := json.Marshal(snapshotFile{Version: 1, Jobs: jobs})
	if err != nil {
		return err
	}
	return writeFileAtomic(filepath.Join(dir, snapshotName), data)
}

// loadSnapshot reads the snapshot; a missing file is an empty queue, a
// malformed one is ErrJournal (snapshots are written atomically, so
// damage means something external happened — refuse to guess).
func loadSnapshot(dir string) ([]Job, error) {
	data, err := os.ReadFile(filepath.Join(dir, snapshotName))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var snap snapshotFile
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("%w: snapshot: %v", ErrJournal, err)
	}
	if snap.Version != 1 {
		return nil, fmt.Errorf("%w: snapshot version %d", ErrJournal, snap.Version)
	}
	// Re-verify every job: the snapshot is on-disk state, not trusted
	// memory, and key/spec agreement is the queue's core invariant.
	for i, job := range snap.Jobs {
		raw, err := json.Marshal(job)
		if err != nil {
			return nil, err
		}
		if snap.Jobs[i], err = DecodeJob(raw); err != nil {
			return nil, fmt.Errorf("%w: snapshot job %d: %v", ErrJournal, i, err)
		}
	}
	return snap.Jobs, nil
}

// writeFileAtomic replaces path with data: write a temp file beside it,
// fsync it, rename it into place, fsync the directory. A crash at any
// point leaves either the old or the new file intact, never a mix, plus
// at most a stray "<name>.tmp*" file that no reader opens.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a rename within it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
