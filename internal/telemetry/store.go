package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Segment file naming: telemetry-<seq>.seg, seq monotonically increasing.
const segPattern = "telemetry-%06d.seg"

// StoreConfig tunes the segment store. The zero value (plus Dir) is usable.
type StoreConfig struct {
	// Dir is the segment directory (required).
	Dir string
	// SegmentBytes rotates the active segment once it grows past this many
	// bytes. Default 2 MiB.
	SegmentBytes int64
	// MaxSegments bounds the total segment count; rotation deletes the
	// oldest sealed segments (and drops their records from the working
	// set) beyond it. Default 16.
	MaxSegments int
	// MaxAge, when positive, retires sealed segments whose newest record
	// is older than this at rotation time. Zero keeps segments until
	// MaxSegments evicts them.
	MaxAge time.Duration
	// NoSync skips the per-append fsync (tests only; production keeps the
	// jobs-WAL durability bar).
	NoSync bool
	// Logf receives replay diagnostics (torn records, skips) and retention
	// actions. nil discards them.
	Logf func(format string, args ...any)
}

func (c StoreConfig) withDefaults() StoreConfig {
	if c.SegmentBytes <= 0 {
		c.SegmentBytes = 2 << 20
	}
	if c.MaxSegments <= 0 {
		c.MaxSegments = 16
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// storedRec tags an in-memory record with its segment, so retention can
// drop the working-set slice a retired segment backed.
type storedRec struct {
	seg int
	rec Record
}

// Store is the embedded telemetry lake: an append-only directory of
// checksummed record segments (the jobs-WAL framing: "<crc32-hex>
// <json>\n", fsync'd per append batch) plus an in-memory working set
// replayed at boot and served to the query tier. A crash loses at most the
// batch being written; everything before the torn tail replays intact.
type Store struct {
	cfg StoreConfig

	mu       sync.Mutex
	f        *os.File
	seq      int   // active segment sequence number
	size     int64 // active segment size in bytes
	segs     []int // live segment sequence numbers, ascending (incl. active)
	recs     []storedRec
	agg      map[string]int64 // running sum of report counters
	appended int64
	skipped  int64 // unreadable records skipped during replay
}

// OpenStore opens (creating if needed) the segment store under cfg.Dir,
// replaying every live segment into the working set. Unreadable records —
// torn tails, checksum mismatches, malformed JSON, newer schemas, unknown
// kinds — are
// logged, counted and skipped, never a boot failure.
func OpenStore(cfg StoreConfig) (*Store, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, fmt.Errorf("telemetry: store dir is required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("telemetry: creating store dir: %w", err)
	}
	s := &Store{cfg: cfg, agg: make(map[string]int64)}

	entries, err := os.ReadDir(cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("telemetry: reading store dir: %w", err)
	}
	for _, e := range entries {
		var seq int
		if _, err := fmt.Sscanf(e.Name(), segPattern, &seq); err == nil {
			s.segs = append(s.segs, seq)
		}
	}
	sort.Ints(s.segs)
	for _, seq := range s.segs {
		if err := s.replaySegment(seq); err != nil {
			return nil, err
		}
	}

	// Continue appending to the newest segment while it has room;
	// otherwise start a fresh one.
	s.seq = 1
	if n := len(s.segs); n > 0 {
		last := s.segs[n-1]
		if fi, err := os.Stat(s.segPath(last)); err == nil && fi.Size() < cfg.SegmentBytes {
			s.seq = last
		} else {
			s.seq = last + 1
		}
	}
	if err := s.openActive(); err != nil {
		return nil, err
	}
	s.retain()
	return s, nil
}

func (s *Store) segPath(seq int) string {
	return filepath.Join(s.cfg.Dir, fmt.Sprintf(segPattern, seq))
}

// openActive opens the active segment for append, registering it in segs.
func (s *Store) openActive() error {
	f, err := os.OpenFile(s.segPath(s.seq), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("telemetry: opening segment: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("telemetry: sizing segment: %w", err)
	}
	s.f, s.size = f, fi.Size()
	if len(s.segs) == 0 || s.segs[len(s.segs)-1] != s.seq {
		s.segs = append(s.segs, s.seq)
	}
	return nil
}

// replaySegment streams one segment's intact records into the working set.
func (s *Store) replaySegment(seq int) error {
	f, err := os.Open(s.segPath(seq))
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("telemetry: opening segment for replay: %w", err)
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<20)
	for lineNo := 1; ; lineNo++ {
		line, err := r.ReadBytes('\n')
		if err == io.EOF {
			if len(bytes.TrimSpace(line)) > 0 {
				// A final line without its newline is a torn write: the
				// process died mid-append. The record is lost; the segment
				// before it is intact.
				s.skipped++
				s.cfg.Logf("telemetry: replay %s: skipping torn record at line %d (%d bytes, no newline)",
					filepath.Base(s.segPath(seq)), lineNo, len(line))
			}
			return nil
		}
		if err != nil {
			return fmt.Errorf("telemetry: reading segment: %w", err)
		}
		rec, perr := decodeLine(line)
		if perr != nil {
			s.skipped++
			s.cfg.Logf("telemetry: replay %s: skipping unreadable record at line %d: %v",
				filepath.Base(s.segPath(seq)), lineNo, perr)
			continue
		}
		s.admit(seq, rec)
	}
}

// admit appends one record to the working set and folds a report's
// counters into the running aggregate.
func (s *Store) admit(seq int, rec Record) {
	s.recs = append(s.recs, storedRec{seg: seq, rec: rec})
	if rec.Kind == KindReport && rec.Report != nil {
		for k, v := range rec.Report.Counters {
			s.agg[k] += v
		}
	}
}

// decodeLine parses and checksums one segment line.
func decodeLine(line []byte) (Record, error) {
	var rec Record
	line = bytes.TrimRight(line, "\n")
	crcHex, payload, ok := bytes.Cut(line, []byte(" "))
	if !ok {
		return rec, fmt.Errorf("no checksum separator")
	}
	var want uint32
	if _, err := fmt.Sscanf(string(crcHex), "%08x", &want); err != nil {
		return rec, fmt.Errorf("bad checksum field %q", crcHex)
	}
	if got := crc32.ChecksumIEEE(payload); got != want {
		return rec, fmt.Errorf("checksum mismatch (want %08x, got %08x)", want, got)
	}
	if err := json.Unmarshal(payload, &rec); err != nil {
		return rec, fmt.Errorf("bad record JSON: %w", err)
	}
	if rec.Schema > SchemaVersion {
		return rec, fmt.Errorf("record schema %d newer than this store's %d", rec.Schema, SchemaVersion)
	}
	if rec.Kind != KindReport && rec.Kind != KindScenario {
		return rec, fmt.Errorf("unknown record kind %q", rec.Kind)
	}
	return rec, nil
}

// Append writes the batch as checksummed record lines and fsyncs once:
// when Append returns nil the batch survives a crash. The batch lands in
// the working set and, when the active segment crosses the size bound,
// triggers rotation and retention.
func (s *Store) Append(recs []Record) error {
	if len(recs) == 0 {
		return nil
	}
	var buf bytes.Buffer
	for i := range recs {
		data, err := json.Marshal(recs[i])
		if err != nil {
			return fmt.Errorf("telemetry: encoding record: %w", err)
		}
		fmt.Fprintf(&buf, "%08x %s\n", crc32.ChecksumIEEE(data), data)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return fmt.Errorf("telemetry: store is closed")
	}
	n, err := s.f.Write(buf.Bytes())
	s.size += int64(n)
	if err != nil {
		return fmt.Errorf("telemetry: appending records: %w", err)
	}
	if !s.cfg.NoSync {
		if err := s.f.Sync(); err != nil {
			return fmt.Errorf("telemetry: syncing segment: %w", err)
		}
	}
	for _, rec := range recs {
		s.admit(s.seq, rec)
		s.appended++
	}
	if s.size >= s.cfg.SegmentBytes {
		if err := s.rotate(); err != nil {
			return err
		}
	}
	return nil
}

// rotate seals the active segment and opens the next, then applies
// retention. Caller holds mu.
func (s *Store) rotate() error {
	if err := s.f.Close(); err != nil {
		return fmt.Errorf("telemetry: sealing segment: %w", err)
	}
	s.seq++
	if err := s.openActive(); err != nil {
		return err
	}
	s.retain()
	return nil
}

// retain applies the segment-count and age bounds: oldest sealed segments
// beyond MaxSegments, and sealed segments whose newest record is older
// than MaxAge, are deleted and their records dropped from the working set.
// The active segment is never retired. Caller holds mu.
func (s *Store) retain() {
	cutoffMS := int64(0)
	if s.cfg.MaxAge > 0 {
		cutoffMS = time.Now().Add(-s.cfg.MaxAge).UnixMilli()
	}
	var drop []int
	for len(s.segs) > 1 && len(s.segs) > s.cfg.MaxSegments {
		drop = append(drop, s.segs[0])
		s.segs = s.segs[1:]
	}
	if cutoffMS > 0 {
		newest := make(map[int]int64)
		for i := range s.recs {
			if t := s.recs[i].rec.TimeMS; t > newest[s.recs[i].seg] {
				newest[s.recs[i].seg] = t
			}
		}
		for len(s.segs) > 1 {
			seq := s.segs[0]
			if n, ok := newest[seq]; ok && n >= cutoffMS {
				break
			}
			drop = append(drop, seq)
			s.segs = s.segs[1:]
		}
	}
	if len(drop) == 0 {
		return
	}
	retired := make(map[int]bool, len(drop))
	for _, seq := range drop {
		retired[seq] = true
		if err := os.Remove(s.segPath(seq)); err != nil && !os.IsNotExist(err) {
			s.cfg.Logf("telemetry: retention: removing %s: %v", filepath.Base(s.segPath(seq)), err)
		} else {
			s.cfg.Logf("telemetry: retention: retired segment %06d", seq)
		}
	}
	kept := s.recs[:0]
	for _, sr := range s.recs {
		if !retired[sr.seg] {
			kept = append(kept, sr)
		}
	}
	s.recs = kept
	// Rebuild the counter aggregate from the surviving working set so the
	// Prometheus view tracks the lake's actual contents.
	s.agg = make(map[string]int64)
	for _, sr := range s.recs {
		if sr.rec.Kind == KindReport && sr.rec.Report != nil {
			for k, v := range sr.rec.Report.Counters {
				s.agg[k] += v
			}
		}
	}
}

// Ingest implements Sink: it appends the batch durably.
func (s *Store) Ingest(recs []Record) error { return s.Append(recs) }

// Records returns a copy of the working set, in append order.
func (s *Store) Records() []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Record, len(s.recs))
	for i := range s.recs {
		out[i] = s.recs[i].rec
	}
	return out
}

// AggregateCounters returns the summed solver counters across every report
// record in the working set (nil when none) — the fleet-wide view the
// /metrics endpoint exposes.
func (s *Store) AggregateCounters() map[string]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.agg) == 0 {
		return nil
	}
	out := make(map[string]int64, len(s.agg))
	for k, v := range s.agg {
		out[k] = v
	}
	return out
}

// StoreStats is a point-in-time snapshot of the store.
type StoreStats struct {
	// Dir is the segment directory.
	Dir string `json:"dir"`
	// Records is the working-set size; Segments the live segment count.
	Records  int `json:"records"`
	Segments int `json:"segments"`
	// Appended counts records written by this process; ReplaySkipped
	// counts unreadable records skipped at boot.
	Appended      int64 `json:"appended"`
	ReplaySkipped int64 `json:"replay_skipped"`
}

// Stats snapshots the store.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return StoreStats{
		Dir:           s.cfg.Dir,
		Records:       len(s.recs),
		Segments:      len(s.segs),
		Appended:      s.appended,
		ReplaySkipped: s.skipped,
	}
}

// Close seals the active segment. Appends after Close fail.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	return err
}
