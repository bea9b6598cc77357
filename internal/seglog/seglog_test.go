package seglog

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// frame is the record line for payload p.
func frame(p string) string { return string(appendFrame(nil, []byte(p))) }

// decodeTest rejects the payload "reject", as a caller's decoder rejects
// JSON it cannot use.
func decodeTest(p []byte) (string, error) {
	if string(p) == "reject" {
		return "", errors.New("decoder rejects it")
	}
	return string(p), nil
}

func replayTest(t *testing.T, dir, name string, logf func(string, ...any)) ([]string, int) {
	t.Helper()
	var got []string
	skipped, err := Replay(dir, name, logf, decodeTest, func(_ int, p string) error {
		got = append(got, p)
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return got, skipped
}

// TestLog writes the files of each case into a fresh directory, opens the
// log "x", appends one payload per Append, closes it and replays it.
func TestLog(t *testing.T) {
	others := map[string]string{
		"y-000001.seg":     frame("other log"),
		"x.wal":            frame("not a segment"),
		"x-000001.seg.tmp": frame("not a segment"),
		"x-1.seg":          frame("not a segment"),
		"xx-000001.seg":    frame("other log"),
	}
	for _, tc := range []struct {
		name         string
		files        map[string]string // pre-existing directory contents
		segmentBytes int64             // default 1 MiB
		keep         int
		appends      []string
		want         []string // payloads Replay returns, in order
		wantSkipped  int
		wantSegs     []int  // segment numbers on disk afterwards
		wantLog      string // substring of Replay's log
	}{
		{
			name:     "empty directory starts segment 1",
			appends:  []string{"a", "b"},
			want:     []string{"a", "b"},
			wantSegs: []int{1},
		},
		{
			name:        "torn tail is skipped and never appended after",
			files:       map[string]string{"x-000001.seg": frame("a") + `deadbeef {"tor`},
			appends:     []string{"b"},
			want:        []string{"a", "b"},
			wantSkipped: 1,
			wantSegs:    []int{1, 2},
			wantLog:     "x-000001.seg line 2: skipping torn record",
		},
		{
			name:        "checksum mismatch",
			files:       map[string]string{"x-000001.seg": "00000000 a\n" + frame("b")},
			want:        []string{"b"},
			wantSkipped: 1,
			wantSegs:    []int{1},
			wantLog:     "line 1: skipping checksum mismatch",
		},
		{
			name:        "bad checksum field",
			files:       map[string]string{"x-000001.seg": "zzzzzzzz a\n" + "1234 a\n" + frame("b")},
			want:        []string{"b"},
			wantSkipped: 2,
			wantSegs:    []int{1},
			wantLog:     "line 2: skipping bad checksum field",
		},
		{
			name:        "no separator",
			files:       map[string]string{"x-000001.seg": "no-separator\n\n" + frame("b")},
			want:        []string{"b"},
			wantSkipped: 2,
			wantSegs:    []int{1},
			wantLog:     "line 1: skipping no checksum separator",
		},
		{
			name:        "decoder rejection",
			files:       map[string]string{"x-000001.seg": frame("reject") + frame("b")},
			want:        []string{"b"},
			wantSkipped: 1,
			wantSegs:    []int{1},
			wantLog:     "line 1: skipping decoder rejects it",
		},
		{
			name:     "reopen continues an intact segment",
			files:    map[string]string{"x-000001.seg": frame("a")},
			appends:  []string{"b"},
			want:     []string{"a", "b"},
			wantSegs: []int{1},
		},
		{
			name:     "reopen continues an empty segment",
			files:    map[string]string{"x-000003.seg": ""},
			appends:  []string{"a"},
			want:     []string{"a"},
			wantSegs: []int{3},
		},
		{
			name:         "reopen starts a new segment after a full one",
			files:        map[string]string{"x-000001.seg": frame("a")},
			segmentBytes: int64(len(frame("a"))),
			appends:      []string{"b"},
			want:         []string{"a", "b"},
			wantSegs:     []int{1, 2},
		},
		{
			name:         "rotation",
			segmentBytes: 1,
			appends:      []string{"a", "b", "c"},
			want:         []string{"a", "b", "c"},
			wantSegs:     []int{1, 2, 3},
		},
		{
			name:         "keep-N retention",
			segmentBytes: 1,
			keep:         2,
			appends:      []string{"a", "b", "c", "d"},
			want:         []string{"c", "d"},
			wantSegs:     []int{3, 4},
		},
		{
			name:         "keep-all retention",
			segmentBytes: 1,
			appends:      []string{"a", "b", "c", "d"},
			want:         []string{"a", "b", "c", "d"},
			wantSegs:     []int{1, 2, 3, 4},
		},
		{
			name: "retention applies at open",
			files: map[string]string{
				"x-000001.seg": frame("a"), "x-000002.seg": frame("b"), "x-000010.seg": frame("c"),
			},
			keep:     2,
			appends:  []string{"d"},
			want:     []string{"b", "c", "d"},
			wantSegs: []int{2, 10},
		},
		{
			name:     "another log's files are ignored",
			files:    others,
			appends:  []string{"a"},
			want:     []string{"a"},
			wantSegs: []int{1},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			for name, content := range tc.files {
				if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			cfg := Config{Dir: dir, Name: "x", SegmentBytes: tc.segmentBytes, Keep: tc.keep, Sync: true, Logf: t.Logf}
			if cfg.SegmentBytes == 0 {
				cfg.SegmentBytes = 1 << 20
			}
			l, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range tc.appends {
				if _, err := l.Append([]byte(p)); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := l.Append([]byte("late")); err == nil {
				t.Error("Append after Close succeeded")
			}

			var logged strings.Builder
			got, skipped := replayTest(t, dir, "x", func(format string, args ...any) {
				fmt.Fprintf(&logged, format+"\n", args...)
			})
			if !slices.Equal(got, tc.want) || skipped != tc.wantSkipped {
				t.Errorf("replayed %q, %d skipped; want %q, %d", got, skipped, tc.want, tc.wantSkipped)
			}
			if !strings.Contains(logged.String(), tc.wantLog) {
				t.Errorf("replay log %q lacks %q", logged.String(), tc.wantLog)
			}
			segs, err := list(dir, "x")
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(segs, tc.wantSegs) {
				t.Errorf("segments %v, want %v", segs, tc.wantSegs)
			}
			for name, content := range tc.files {
				if _, other := others[name]; other {
					if b, err := os.ReadFile(filepath.Join(dir, name)); err != nil || string(b) != content {
						t.Errorf("%s changed: %q, %v", name, b, err)
					}
				}
			}
		})
	}
}

// TestAppendBatch: one Append writes all its payloads into one segment, and
// a payload with a newline is refused before anything is written.
func TestAppendBatch(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Config{Dir: dir, Name: "x", SegmentBytes: 1, Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if seq, err := l.Append([]byte("a"), []byte("b")); err != nil || seq != 1 {
		t.Fatalf("Append = %d, %v; want segment 1", seq, err)
	}
	if _, err := l.Append([]byte("c"), []byte("d\ne")); err == nil {
		t.Fatal("payload with a newline accepted")
	}
	if seq, err := l.Append([]byte("c")); err != nil || seq != 2 {
		t.Fatalf("Append = %d, %v; want segment 2", seq, err)
	}
	if oldest, n := l.Segments(); oldest != 1 || n != 2 {
		t.Errorf("Segments = %d, %d; want 1, 2", oldest, n)
	}
	got, _ := replayTest(t, dir, "x", nil)
	if !slices.Equal(got, []string{"a", "b", "c"}) {
		t.Errorf("replayed %q", got)
	}
}

// TestReplayAbortsOnCallbackError: an error from fn stops the replay and
// is returned as is; a missing directory is an error too.
func TestReplayAbortsOnCallbackError(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(Path(dir, "x", 1), []byte(frame("a")+frame("b")), 0o644); err != nil {
		t.Fatal(err)
	}
	stop := errors.New("stop")
	n := 0
	_, err := Replay(dir, "x", nil, decodeTest, func(int, string) error { n++; return stop })
	if !errors.Is(err, stop) || n != 1 {
		t.Errorf("Replay = %v after %d records, want stop after 1", err, n)
	}
	if _, err := Replay(filepath.Join(dir, "missing"), "x", nil, decodeTest, func(int, string) error { return nil }); err == nil {
		t.Error("Replay of a missing directory succeeded")
	}
}

// FuzzReplay: whatever a crash left in the newest segment, the records
// appended after the next Open replay, in order, at the end of the log.
func FuzzReplay(f *testing.F) {
	f.Fuzz(func(t *testing.T, tail []byte, n uint8) {
		dir := t.TempDir()
		if err := os.WriteFile(Path(dir, "x", 1), tail, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(Config{Dir: dir, Name: "x", SegmentBytes: 64})
		if err != nil {
			t.Fatal(err)
		}
		want := make([]string, n%16)
		for i := range want {
			want[i] = fmt.Sprintf(`{"i":%d}`, i)
			if _, err := l.Append([]byte(want[i])); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		var got []string
		_, err = Replay(dir, "x", nil, func(p []byte) (string, error) { return string(p), nil }, func(_ int, p string) error {
			got = append(got, p)
			return nil
		})
		if err != nil {
			t.Fatalf("Replay: %v", err)
		}
		if len(got) < len(want) || !slices.Equal(got[len(got)-len(want):], want) {
			t.Fatalf("replay ends with %q, want %q", got, want)
		}
	})
}
