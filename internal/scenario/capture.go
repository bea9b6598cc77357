package scenario

// Record/replay. streakd -record-dir hands each accepted /route and
// /jobs body to a Capture, which keeps a bounded ring of segment files on
// disk. A captured window of live traffic becomes a Program via
// ProgramFromCapture and replays through cmd/streakload -replay — the
// bug that only happens under "whatever production was doing at 3am"
// becomes a seeded regression.

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"repro/internal/seglog"
	"repro/internal/signal"
)

// CapturedRequest is one recorded request, as stored on disk.
type CapturedRequest struct {
	// TimeMS is the capture wall-clock time in Unix milliseconds. Replay
	// only uses differences between consecutive entries, so clock epoch
	// does not matter.
	TimeMS int64 `json:"time_ms"`
	// Path is the request path ("/route" or "/jobs").
	Path string `json:"path"`
	// Query is the raw query string, "" for none.
	Query string `json:"query,omitempty"`
	// Body is the verbatim request body (a signal.Design JSON document).
	Body json.RawMessage `json:"body"`
}

// captureName names the ring's segments: capture-<seq>.seg.
const captureName = "capture"

// Capture is a ring of segment files (internal/seglog) holding recent
// request bodies. Safe for concurrent Record calls. Total disk use is
// bounded by keep segments of ~segBytes each. Records reach the OS one
// write each but are never fsync'd: the ring is a debugging aid.
type Capture struct {
	log *seglog.Log
	now func() time.Time
}

// OpenCapture opens (creating if needed) a capture ring in dir. Segments
// rotate at segBytes (default 4 MiB if <= 0) and at most keep segments
// are retained (default 8 if <= 0); older segments are deleted. Resumes
// numbering after any segments already present.
func OpenCapture(dir string, segBytes int64, keep int) (*Capture, error) {
	if segBytes <= 0 {
		segBytes = 4 << 20
	}
	if keep <= 0 {
		keep = 8
	}
	log, err := seglog.Open(seglog.Config{Dir: dir, Name: captureName, SegmentBytes: segBytes, Keep: keep})
	if err != nil {
		return nil, fmt.Errorf("scenario: opening capture: %w", err)
	}
	return &Capture{log: log, now: time.Now}, nil
}

// Record appends one request to the ring. Errors are returned, not
// fatal: the serving path treats capture as best-effort.
func (c *Capture) Record(path, query string, body []byte) error {
	line, err := json.Marshal(CapturedRequest{
		TimeMS: c.now().UnixMilli(),
		Path:   path,
		Query:  query,
		Body:   json.RawMessage(body),
	})
	if err != nil {
		return fmt.Errorf("scenario: capture encode: %w", err)
	}
	if _, err := c.log.Append(line); err != nil {
		return fmt.Errorf("scenario: capture write: %w", err)
	}
	return nil
}

// Close closes the current segment.
func (c *Capture) Close() error { return c.log.Close() }

// ReadCapture loads every request in the ring, oldest first. Records that
// are torn, fail their checksum or do not decode are skipped with a
// count, not fatal — a half-written tail after a crash must not poison
// the rest of the capture.
func ReadCapture(dir string) (reqs []CapturedRequest, skipped int, err error) {
	skipped, err = seglog.Replay(dir, captureName, nil, decodeCaptured, func(_ int, cr CapturedRequest) error {
		reqs = append(reqs, cr)
		return nil
	})
	if err != nil {
		return nil, 0, fmt.Errorf("scenario: reading capture: %w", err)
	}
	return reqs, skipped, nil
}

func decodeCaptured(payload []byte) (CapturedRequest, error) {
	var cr CapturedRequest
	if err := json.Unmarshal(payload, &cr); err != nil {
		return cr, err
	}
	if cr.Path == "" {
		return cr, errors.New("captured request without path")
	}
	return cr, nil
}

// ProgramFromCapture turns captured traffic into a replayable Program.
// Arrival offsets preserve the captured inter-request spacing (the first
// request fires at 0); bodies that do not decode as designs are dropped
// with their count reported.
func ProgramFromCapture(name string, reqs []CapturedRequest) (prog *Program, dropped int, err error) {
	prog = &Program{Name: name}
	var epoch int64
	for _, cr := range reqs {
		var d signal.Design
		if json.Unmarshal(cr.Body, &d) != nil || d.Validate() != nil {
			dropped++
			continue
		}
		if len(prog.Requests) == 0 {
			epoch = cr.TimeMS
		}
		at := time.Duration(cr.TimeMS-epoch) * time.Millisecond
		if n := len(prog.Requests); n > 0 && at < prog.Requests[n-1].At {
			at = prog.Requests[n-1].At // clamp clock skew to keep replay ordered
		}
		prog.Requests = append(prog.Requests, Request{At: at, Path: cr.Path, Query: cr.Query, Design: &d})
	}
	if len(prog.Requests) == 0 {
		return nil, dropped, fmt.Errorf("scenario: capture holds no replayable requests (%d undecodable)", dropped)
	}
	return prog, dropped, nil
}
