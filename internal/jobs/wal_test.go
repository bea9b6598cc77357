package jobs

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/seglog"
)

func walRecord(id string, st State, attempt int) Record {
	rec := Record{JobID: id, State: st, Time: time.Unix(1700000000, 0).UTC(), Attempt: attempt}
	if st == Pending && attempt == 0 {
		rec.Spec = &Spec{Design: json.RawMessage(`{"name":"d"}`)}
	}
	return rec
}

func replayAll(t *testing.T, w *WAL) ([]Record, int) {
	t.Helper()
	var got []Record
	skipped, err := w.Replay(context.Background(), func(rec Record) error {
		got = append(got, rec)
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return got, skipped
}

func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	want := []Record{
		walRecord("a", Pending, 0),
		walRecord("a", Running, 1),
		walRecord("a", Succeeded, 1),
		walRecord("b", Pending, 0),
	}
	for _, rec := range want {
		if err := w.Append(ctx, rec); err != nil {
			t.Fatal(err)
		}
	}
	got, skipped := replayAll(t, w)
	if skipped != 0 || len(got) != len(want) {
		t.Fatalf("replay: %d records, %d skipped (want %d, 0)", len(got), skipped, len(want))
	}
	for i := range want {
		if got[i].JobID != want[i].JobID || got[i].State != want[i].State || got[i].Attempt != want[i].Attempt {
			t.Errorf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if got[0].Spec == nil || string(got[0].Spec.Design) != `{"name":"d"}` {
		t.Errorf("submit record lost its spec: %+v", got[0])
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestWALReopenAppends(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	w1, err := OpenWAL(dir, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w1.Append(ctx, walRecord("a", Pending, 0)); err != nil {
		t.Fatal(err)
	}
	w1.Close()

	// A second open of the same directory appends, not truncates.
	w2, err := OpenWAL(dir, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if err := w2.Append(ctx, walRecord("a", Running, 1)); err != nil {
		t.Fatal(err)
	}
	got, skipped := replayAll(t, w2)
	if skipped != 0 || len(got) != 2 || got[1].State != Running {
		t.Fatalf("after reopen: %d records, %d skipped: %+v", len(got), skipped, got)
	}
}

func TestWALTornTailSkipped(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	var logged []string
	logf := func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) }
	w, err := OpenWAL(dir, logf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(ctx, walRecord("a", Pending, 0)); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(ctx, walRecord("a", Running, 1)); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: chop the final newline and half the
	// last record off the file.
	path := seglog.Path(dir, walName, 1)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-10], 0o644); err != nil {
		t.Fatal(err)
	}

	got, skipped := replayAll(t, w)
	if len(got) != 1 || got[0].State != Pending {
		t.Fatalf("intact prefix not replayed: %+v", got)
	}
	if skipped != 1 {
		t.Errorf("skipped = %d, want 1 (the torn tail)", skipped)
	}
	if len(logged) == 0 || !strings.Contains(strings.Join(logged, "\n"), "torn") {
		t.Errorf("torn tail not logged: %q", logged)
	}
	w.Close()

	// The restarted daemon accepts a new job. Its submit must not be
	// glued onto the torn fragment and lost at the next boot.
	w2, err := OpenWAL(dir, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Append(ctx, walRecord("b", Pending, 0)); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	w3, err := OpenWAL(dir, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer w3.Close()
	got, skipped = replayAll(t, w3)
	if len(got) != 2 || got[1].JobID != "b" || got[1].Spec == nil || skipped != 1 {
		t.Fatalf("after restart: %d records, %d skipped, want a and b's submit, 1 skipped: %+v", len(got), skipped, got)
	}
}

func TestWALChecksumMismatchSkipped(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	w, err := OpenWAL(dir, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for _, rec := range []Record{
		walRecord("a", Pending, 0),
		walRecord("b", Pending, 0),
		walRecord("b", Running, 1),
	} {
		if err := w.Append(ctx, rec); err != nil {
			t.Fatal(err)
		}
	}

	// Flip bytes inside the middle record's payload: its checksum no
	// longer matches, but the records around it stay intact.
	path := seglog.Path(dir, walName, 1)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	lines[1] = strings.Replace(lines[1], `"job":"b"`, `"job":"X"`, 1)
	if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}

	got, skipped := replayAll(t, w)
	if skipped != 1 || len(got) != 2 {
		t.Fatalf("replay over corrupt middle: %d records, %d skipped", len(got), skipped)
	}
	if got[0].JobID != "a" || got[1].JobID != "b" || got[1].State != Running {
		t.Errorf("wrong survivors: %+v", got)
	}
}

func TestWALGarbageLinesSkipped(t *testing.T) {
	dir := t.TempDir()
	// Hand-write a journal with every corruption flavor around one good
	// record, under the single-file name used before the segment log: the
	// open adopts it as the first segment.
	good := walRecord("a", Pending, 0)
	data, err := json.Marshal(good)
	if err != nil {
		t.Fatal(err)
	}
	content := "no-separator-line\n" +
		"zzzzzzzz {\"job\":\"x\"}\n" + // unparseable checksum field
		"00000000 {not json}\n" + // checksum matches nothing
		encodeTestLine(t, data) +
		encodeTestLine(t, []byte(`{"state":"PENDING"}`)) // valid frame, empty job ID
	legacy := filepath.Join(dir, legacyWAL)
	if err := os.WriteFile(legacy, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := OpenWAL(dir, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	got, skipped := replayAll(t, w)
	if len(got) != 1 || got[0].JobID != "a" {
		t.Fatalf("good record lost among garbage: %+v", got)
	}
	if skipped != 4 {
		t.Errorf("skipped = %d, want 4", skipped)
	}
	w.Close()

	// A jobs.wal next to existing segments never replaces one.
	if err := os.WriteFile(legacy, []byte(encodeTestLine(t, []byte(`{"job":"z","state":"PENDING"}`))), 0o644); err != nil {
		t.Fatal(err)
	}
	w2, err := OpenWAL(dir, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if got, _ := replayAll(t, w2); len(got) != 1 || got[0].JobID != "a" {
		t.Fatalf("legacy file replaced the journal: %+v", got)
	}
	if _, err := os.Stat(legacy); err != nil {
		t.Errorf("legacy file next to segments was not left alone: %v", err)
	}
}

// encodeTestLine frames a payload the way Append does.
func encodeTestLine(t *testing.T, payload []byte) string {
	t.Helper()
	return fmt.Sprintf("%08x %s\n", crc32.ChecksumIEEE(payload), payload)
}
