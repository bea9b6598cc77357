package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"repro/internal/faultinject"
	"repro/internal/seglog"
)

const (
	// walName names the journal's segments: jobs-<seq>.seg.
	walName = "jobs"
	// walSegmentBytes rotates the journal. Every segment is kept: only a
	// compaction that knows which jobs are finished may drop job records.
	walSegmentBytes = 4 << 20
	// legacyWAL is the single journal file written before the segment
	// log, in the same framing.
	legacyWAL = "jobs.wal"
)

// WAL is the durable Store: an append-only journal of job state
// transitions on a segment log (internal/seglog), one checksummed record
// per transition, fsync'd before Append returns, so a crash loses at most
// the record being written when the power went out. Replay skips torn,
// corrupt and undecodable records with a log line and a count, never a
// boot failure.
type WAL struct {
	dir  string
	logf func(format string, args ...any)
	log  *seglog.Log
}

// OpenWAL opens (creating if needed) the journal under dir. logf receives
// replay diagnostics (torn records, skips); nil discards them.
func OpenWAL(dir string, logf func(format string, args ...any)) (*WAL, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if err := adoptLegacy(dir, logf); err != nil {
		return nil, err
	}
	log, err := seglog.Open(seglog.Config{Dir: dir, Name: walName, SegmentBytes: walSegmentBytes, Sync: true, Logf: logf})
	if err != nil {
		return nil, fmt.Errorf("jobs: opening WAL: %w", err)
	}
	return &WAL{dir: dir, logf: logf, log: log}, nil
}

// adoptLegacy makes a jobs.wal journal the first segment when the
// directory holds none yet. os.Link never replaces an existing segment.
func adoptLegacy(dir string, logf func(format string, args ...any)) error {
	legacy := filepath.Join(dir, legacyWAL)
	err := os.Link(legacy, seglog.Path(dir, walName, 1))
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if errors.Is(err, fs.ErrExist) {
		logf("jobs: leaving %s in place: the journal already has segments", legacy)
		return nil
	}
	if err == nil {
		err = os.Remove(legacy)
	}
	if err != nil {
		return fmt.Errorf("jobs: adopting %s: %w", legacy, err)
	}
	return nil
}

// Append writes one record and fsyncs it: when Append returns nil the
// transition survives a crash.
func (w *WAL) Append(ctx context.Context, rec Record) error {
	if err := faultinject.Fire(ctx, faultinject.JobsStoreAppend); err != nil {
		return err
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("jobs: encoding WAL record: %w", err)
	}
	if _, err := w.log.Append(data); err != nil {
		return fmt.Errorf("jobs: appending WAL record: %w", err)
	}
	return nil
}

// Replay streams every intact record into fn, in append order. Unreadable
// records — torn final line, checksum mismatch, malformed JSON, or a
// record an armed jobs.store.replay corrupt fault hits — are logged,
// counted and skipped; only real I/O errors and fn failures abort.
func (w *WAL) Replay(ctx context.Context, fn func(Record) error) (int, error) {
	if err := faultinject.Fire(ctx, faultinject.JobsStoreReplay); err != nil {
		return 0, err
	}
	decode := func(payload []byte) (Record, error) {
		rec, err := decodeRecord(payload)
		if err == nil && faultinject.Corrupt(ctx, faultinject.JobsStoreReplay) {
			err = errors.New("record corrupted by fault injection")
		}
		return rec, err
	}
	return seglog.Replay(w.dir, walName, w.logf, decode, func(_ int, rec Record) error { return fn(rec) })
}

// decodeRecord parses one journal payload.
func decodeRecord(payload []byte) (Record, error) {
	var rec Record
	if err := json.Unmarshal(payload, &rec); err != nil {
		return rec, fmt.Errorf("bad record JSON: %w", err)
	}
	if rec.JobID == "" {
		return rec, errors.New("record without job ID")
	}
	return rec, nil
}

// Close closes the journal.
func (w *WAL) Close() error { return w.log.Close() }
