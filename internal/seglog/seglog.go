// Package seglog is the append-only segment log under streakd's jobs
// journal, telemetry lake and capture ring: a directory of files
// <name>-<seq>.seg, seq counting up from 1, holding one record per line,
// "<crc32-ieee-hex8> <payload>\n". Payloads must not contain a newline
// (encoding/json output never does).
//
// A log never appends after a torn line (a final line without its newline:
// the process died mid-append). Open starts a new segment when the newest
// one is full or does not end in '\n', and so does the Append after one
// whose write or fsync failed; otherwise the first record written after a
// crash would be glued onto the fragment and lost at replay.
package seglog

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// Config fixes a log's layout, bounds and durability. Each owner sets it
// in code.
type Config struct {
	// Dir holds the segments; Open creates it if needed.
	Dir string
	// Name prefixes the segment files: <Name>-<seq>.seg.
	Name string
	// SegmentBytes is the rotation size: an Append starts a new segment
	// when the active one holds at least this many bytes.
	SegmentBytes int64
	// Keep bounds the segment count: starting a segment deletes the oldest
	// beyond it. Zero keeps every segment.
	Keep int
	// Sync fsyncs each Append before it returns, and the directory when a
	// segment is created (a file's fsync does not persist its directory
	// entry). Without it an Append still reaches the OS in one write.
	Sync bool
	// Logf receives retention and close diagnostics; nil discards them.
	Logf func(format string, args ...any)
}

// Log is an open segment log, safe for concurrent use.
type Log struct {
	cfg Config

	mu   sync.Mutex
	f    *os.File // active segment; nil once closed
	segs []int    // live segment numbers, ascending; the last is active
	size int64    // bytes in the active segment
	torn bool     // a failed Append may have left a partial line
	buf  []byte   // frame buffer, reused under mu
}

// Path returns the file of segment seq of log name in dir.
func Path(dir, name string, seq int) string {
	return filepath.Join(dir, fileName(name, seq))
}

func fileName(name string, seq int) string { return fmt.Sprintf("%s-%06d.seg", name, seq) }

// Open opens the log cfg describes. It continues the newest segment when
// that one is intact and not full, and otherwise starts the next one.
func Open(cfg Config) (*Log, error) {
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("seglog: %w", err)
	}
	segs, err := list(cfg.Dir, cfg.Name)
	if err != nil {
		return nil, err
	}
	l := &Log{cfg: cfg, segs: segs}
	if n := len(segs); n > 0 {
		if err := l.resume(Path(cfg.Dir, cfg.Name, segs[n-1])); err != nil {
			return nil, err
		}
	}
	if l.f == nil {
		if err := l.rotate(); err != nil {
			return nil, err
		}
	}
	l.retain()
	return l, nil
}

// resume opens the segment at path for append unless it is full or its
// last byte is not a newline. It reads only that byte.
func (l *Log) resume(path string) error {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0)
	if err != nil {
		return fmt.Errorf("seglog: %w", err)
	}
	fi, err := f.Stat()
	last := []byte{'\n'}
	if err == nil && fi.Size() > 0 {
		_, err = f.ReadAt(last, fi.Size()-1)
	}
	if err != nil {
		f.Close()
		return fmt.Errorf("seglog: %w", err)
	}
	if fi.Size() >= l.cfg.SegmentBytes || last[0] != '\n' {
		return f.Close()
	}
	l.f, l.size = f, fi.Size()
	return nil
}

// rotate makes a new segment the active one and applies retention. Caller
// holds mu, or owns l inside Open.
func (l *Log) rotate() error {
	seq := 1
	if n := len(l.segs); n > 0 {
		seq = l.segs[n-1] + 1
	}
	path := Path(l.cfg.Dir, l.cfg.Name, seq)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY|os.O_APPEND, 0o644)
	if err == nil && l.cfg.Sync {
		if err = syncDir(l.cfg.Dir); err != nil {
			f.Close()
			os.Remove(path) // so the next Append can retry this number
		}
	}
	if err != nil {
		return fmt.Errorf("seglog: %w", err)
	}
	if l.f != nil {
		if err := l.f.Close(); err != nil {
			l.cfg.Logf("seglog: %v", err)
		}
	}
	l.f, l.size, l.torn = f, 0, false
	l.segs = append(l.segs, seq)
	l.retain()
	return nil
}

// retain deletes the oldest segments beyond Keep, never the active one.
// Caller holds mu, or owns l inside Open.
func (l *Log) retain() {
	for l.cfg.Keep > 0 && len(l.segs) > l.cfg.Keep {
		name := fileName(l.cfg.Name, l.segs[0])
		if err := os.Remove(filepath.Join(l.cfg.Dir, name)); err != nil && !errors.Is(err, fs.ErrNotExist) {
			l.cfg.Logf("seglog: retention: %v", err)
		} else {
			l.cfg.Logf("seglog: retention: retired %s", name)
		}
		l.segs = l.segs[1:]
	}
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Append frames the payloads and writes them in one write, fsync'd once
// when the log syncs, and returns the number of the segment they went to.
// After an error, none of them may be assumed durable.
func (l *Log) Append(payloads ...[]byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return 0, fmt.Errorf("seglog: %s log is closed", l.cfg.Name)
	}
	buf := l.buf[:0]
	for _, p := range payloads {
		if bytes.IndexByte(p, '\n') >= 0 {
			return 0, fmt.Errorf("seglog: %s payload contains a newline", l.cfg.Name)
		}
		buf = appendFrame(buf, p)
	}
	if cap(buf) <= 1<<20 { // one large record must not pin its size
		l.buf = buf
	}
	if l.torn || l.size >= l.cfg.SegmentBytes {
		if err := l.rotate(); err != nil {
			return 0, err
		}
	}
	seq := l.segs[len(l.segs)-1]
	n, err := l.f.Write(buf)
	l.size += int64(n)
	if err == nil && l.cfg.Sync {
		err = l.f.Sync()
	}
	if err != nil {
		l.torn = true
		return 0, fmt.Errorf("seglog: appending to %s: %w", fileName(l.cfg.Name, seq), err)
	}
	return seq, nil
}

// Segments reports the oldest live segment's number and the live segment
// count, the active one included.
func (l *Log) Segments() (oldest, n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.segs[0], len(l.segs)
}

// Close closes the active segment. Appends after Close fail.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}

// appendFrame appends the record line of payload p to b.
func appendFrame(b, p []byte) []byte {
	const hex = "0123456789abcdef"
	sum := crc32.ChecksumIEEE(p)
	for shift := 28; shift >= 0; shift -= 4 {
		b = append(b, hex[sum>>shift&0xf])
	}
	b = append(b, ' ')
	b = append(b, p...)
	return append(b, '\n')
}

// unframe checks one record line, without its newline (complete reports
// whether it had one), and returns its payload.
func unframe(line []byte, complete bool) ([]byte, error) {
	if !complete {
		return nil, fmt.Errorf("torn record (%d bytes, no newline)", len(line))
	}
	sumHex, payload, ok := bytes.Cut(line, []byte(" "))
	if !ok {
		return nil, errors.New("no checksum separator")
	}
	want, err := strconv.ParseUint(string(sumHex), 16, 32)
	if err != nil || len(sumHex) != 8 {
		return nil, fmt.Errorf("bad checksum field %q", sumHex)
	}
	if got := crc32.ChecksumIEEE(payload); got != uint32(want) {
		return nil, fmt.Errorf("checksum mismatch (want %08x, got %08x)", want, got)
	}
	return payload, nil
}

// list returns the numbers of log name's segments in dir, ascending. It
// ignores every file whose name Path would not make.
func list(dir, name string) ([]int, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("seglog: %w", err)
	}
	var segs []int
	for _, e := range ents {
		digits, _ := strings.CutSuffix(strings.TrimPrefix(e.Name(), name+"-"), ".seg")
		if seq, err := strconv.Atoi(digits); err == nil && seq > 0 && fileName(name, seq) == e.Name() {
			segs = append(segs, seq)
		}
	}
	slices.Sort(segs)
	return segs, nil
}

// Replay streams the records of log name in dir, oldest first, through
// decode and then fn, which also receives the record's segment number.
// Torn lines, lines failing their checksum and payloads decode rejects
// are logged (segment, line, reason), counted in skipped and passed over.
// An I/O error or an error from fn aborts the replay.
func Replay[T any](dir, name string, logf func(format string, args ...any),
	decode func(payload []byte) (T, error), fn func(seq int, rec T) error) (skipped int, err error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	segs, err := list(dir, name)
	if err != nil {
		return 0, err
	}
	for _, seq := range segs {
		data, err := os.ReadFile(Path(dir, name, seq))
		if errors.Is(err, fs.ErrNotExist) {
			continue // retired since it was listed
		}
		if err != nil {
			return skipped, fmt.Errorf("seglog: %w", err)
		}
		for lineNo := 1; len(data) > 0; lineNo++ {
			line, rest, ok := bytes.Cut(data, []byte("\n"))
			data = rest
			var rec T
			payload, err := unframe(line, ok)
			if err == nil {
				rec, err = decode(payload)
			}
			if err != nil {
				skipped++
				logf("seglog: replay %s line %d: skipping %v", fileName(name, seq), lineNo, err)
				continue
			}
			if err := fn(seq, rec); err != nil {
				return skipped, err
			}
		}
	}
	return skipped, nil
}
