package telemetry

import (
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/seglog"
)

// storeName names the lake's segments: telemetry-<seq>.seg.
const storeName = "telemetry"

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
	// Logf receives replay diagnostics (torn records, skips) and retention
	// actions. nil discards them.
	Logf func(format string, args ...any)
}

// storedRec tags an in-memory record with its segment, so retention can
// drop the working-set slice a retired segment backed.
type storedRec struct {
	seg int
	rec Record
}

// Store is the embedded telemetry lake: a segment log (internal/seglog,
// fsync'd once per append batch) plus an in-memory working set replayed at
// boot and served to the query tier. A crash loses at most the batch being
// written; everything before the torn tail replays intact.
type Store struct {
	dir string
	log *seglog.Log

	mu       sync.Mutex
	recs     []storedRec      // in append order, so ascending by segment
	agg      map[string]int64 // running sum of report counters
	appended int64
	skipped  int64 // unreadable records skipped during replay
}

// OpenStore opens (creating if needed) the segment store under cfg.Dir,
// replaying every live segment into the working set. Unreadable records —
// torn tails, checksum mismatches, malformed JSON, newer schemas, unknown
// kinds — are logged, counted and skipped, never a boot failure.
func OpenStore(cfg StoreConfig) (*Store, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("telemetry: store dir is required")
	}
	if cfg.SegmentBytes <= 0 {
		cfg.SegmentBytes = 2 << 20
	}
	if cfg.MaxSegments <= 0 {
		cfg.MaxSegments = 16
	}
	log, err := seglog.Open(seglog.Config{
		Dir: cfg.Dir, Name: storeName, SegmentBytes: cfg.SegmentBytes,
		Keep: cfg.MaxSegments, Sync: true, Logf: cfg.Logf,
	})
	if err != nil {
		return nil, fmt.Errorf("telemetry: opening store: %w", err)
	}
	s := &Store{dir: cfg.Dir, log: log, agg: make(map[string]int64)}
	skipped, err := seglog.Replay(cfg.Dir, storeName, cfg.Logf, decodeRecord, func(seq int, rec Record) error {
		s.admit(seq, rec)
		return nil
	})
	s.skipped = int64(skipped)
	if err != nil {
		log.Close()
		return nil, fmt.Errorf("telemetry: replaying store: %w", err)
	}
	return s, nil
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

// decodeRecord parses one segment payload.
func decodeRecord(payload []byte) (Record, error) {
	var rec Record
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

// Append writes the batch and fsyncs once: when Append returns nil the
// batch survives a crash. The batch lands in the working set; when the
// write started a new segment, records of the segments retention deleted
// leave it.
func (s *Store) Append(recs []Record) error {
	if len(recs) == 0 {
		return nil
	}
	payloads := make([][]byte, len(recs))
	for i := range recs {
		data, err := json.Marshal(recs[i])
		if err != nil {
			return fmt.Errorf("telemetry: encoding record: %w", err)
		}
		payloads[i] = data
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	seq, err := s.log.Append(payloads...)
	if err != nil {
		return fmt.Errorf("telemetry: appending records: %w", err)
	}
	for _, rec := range recs {
		s.admit(seq, rec)
		s.appended++
	}
	s.retire()
	return nil
}

// retire drops the working-set records of the segments retention deleted
// and rebuilds the counter aggregate from the survivors, so the Prometheus
// view tracks the lake's actual contents. Caller holds mu.
func (s *Store) retire() {
	oldest, _ := s.log.Segments()
	if len(s.recs) == 0 || s.recs[0].seg >= oldest {
		return
	}
	kept := s.recs
	s.recs, s.agg = nil, make(map[string]int64)
	for _, sr := range kept {
		if sr.seg >= oldest {
			s.admit(sr.seg, sr.rec)
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
	_, segs := s.log.Segments()
	s.mu.Lock()
	defer s.mu.Unlock()
	return StoreStats{
		Dir:           s.dir,
		Records:       len(s.recs),
		Segments:      segs,
		Appended:      s.appended,
		ReplaySkipped: s.skipped,
	}
}

// Close seals the active segment. Appends after Close fail.
func (s *Store) Close() error { return s.log.Close() }
