package telemetry

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// reportRec builds a minimal report record with a controlled timestamp.
func reportRec(t int64, design, method string, durUS int64) Record {
	return Record{
		Schema: SchemaVersion,
		Kind:   KindReport,
		TimeMS: t,
		Source: "test",
		Report: &SolveReport{Design: design, Method: method, DurUS: durUS,
			Counters: map[string]int64{"pd.iterations": 3}},
	}
}

// segPattern is the lake's segment file name.
const segPattern = "telemetry-%06d.seg"

func openTestStore(t *testing.T, dir string, mut ...func(*StoreConfig)) *Store {
	t.Helper()
	cfg := StoreConfig{Dir: dir, Logf: t.Logf}
	for _, m := range mut {
		m(&cfg)
	}
	s, err := OpenStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestStoreReplay is the restart path: append, close, reopen, and the
// working set (records, counter aggregate, scenario runs) must be intact.
func TestStoreReplay(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir)
	recs := []Record{
		reportRec(100, "d1", "PrimalDual", 500),
		reportRec(200, "d1", "ILP", 900),
		scenarioRec(300, "churnchaos", true),
	}
	if err := s.Append(recs); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openTestStore(t, dir)
	defer s2.Close()
	got := s2.Records()
	if len(got) != 3 {
		t.Fatalf("replayed %d records, want 3", len(got))
	}
	if got[0].Report.Design != "d1" || got[2].Scenario.Name != "churnchaos" {
		t.Errorf("replayed records mangled: %+v", got)
	}
	if agg := s2.AggregateCounters(); agg["pd.iterations"] != 6 {
		t.Errorf("counter aggregate = %v, want pd.iterations 6", agg)
	}
	if st := s2.Stats(); st.ReplaySkipped != 0 {
		t.Errorf("clean replay skipped %d records", st.ReplaySkipped)
	}
}

// TestStoreTornTail simulates a crash mid-append: a final line without its
// newline must be skipped at replay, with every record before it intact.
func TestStoreTornTail(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir)
	if err := s.Append([]Record{reportRec(100, "d1", "pd", 10), reportRec(200, "d1", "pd", 20)}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	seg := filepath.Join(dir, fmt.Sprintf(segPattern, 1))
	f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Half a record: checksum and a truncated payload, no newline.
	if _, err := f.WriteString(`deadbeef {"schema":1,"kind":"rep`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2 := openTestStore(t, dir)
	if got := s2.Records(); len(got) != 2 {
		t.Fatalf("replayed %d records past the torn tail, want 2", len(got))
	}
	if st := s2.Stats(); st.ReplaySkipped != 1 {
		t.Errorf("ReplaySkipped = %d, want 1", st.ReplaySkipped)
	}

	// The restarted lake takes a new batch. It must not be glued onto the
	// torn fragment and lost at the next boot.
	if err := s2.Append([]Record{reportRec(300, "d2", "pd", 30)}); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3 := openTestStore(t, dir)
	defer s3.Close()
	if got := s3.Records(); len(got) != 3 || got[2].Report.Design != "d2" {
		t.Fatalf("after restart replayed %+v, want the two records and the new batch", got)
	}
	if st := s3.Stats(); st.ReplaySkipped != 1 {
		t.Errorf("ReplaySkipped = %d after restart, want 1", st.ReplaySkipped)
	}
}

// TestStoreCorruptRecord flips payload bytes of a middle record: the
// checksum rejects it, and records on both sides survive.
func TestStoreCorruptRecord(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir)
	if err := s.Append([]Record{
		reportRec(100, "a", "pd", 1),
		reportRec(200, "b", "pd", 2),
		reportRec(300, "c", "pd", 3),
	}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	seg := filepath.Join(dir, fmt.Sprintf(segPattern, 1))
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(raw), "\n")
	lines[1] = strings.Replace(lines[1], `"design":"b"`, `"design":"X"`, 1)
	if err := os.WriteFile(seg, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openTestStore(t, dir)
	defer s2.Close()
	got := s2.Records()
	if len(got) != 2 {
		t.Fatalf("replayed %d records, want 2 (corrupt middle skipped)", len(got))
	}
	if got[0].Report.Design != "a" || got[1].Report.Design != "c" {
		t.Errorf("wrong survivors: %+v", got)
	}
	if st := s2.Stats(); st.ReplaySkipped != 1 {
		t.Errorf("ReplaySkipped = %d, want 1", st.ReplaySkipped)
	}
}

// TestStoreNewerSchemaSkipped: a record stamped by a future version is
// skipped at replay instead of failing the boot.
func TestStoreNewerSchemaSkipped(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir)
	future := reportRec(100, "d", "pd", 1)
	future.Schema = SchemaVersion + 1
	if err := s.Append([]Record{future, reportRec(200, "d", "pd", 2)}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2 := openTestStore(t, dir)
	defer s2.Close()
	if got := s2.Records(); len(got) != 1 || got[0].TimeMS != 200 {
		t.Fatalf("want only the current-schema record, got %+v", got)
	}
}

// TestStoreRotationRetention drives the segment size bound low enough to
// force rotations and checks MaxSegments holds: old segments disappear from
// disk and their records leave the working set.
func TestStoreRotationRetention(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, func(c *StoreConfig) {
		c.SegmentBytes = 256
		c.MaxSegments = 2
	})
	defer s.Close()
	for i := 0; i < 40; i++ {
		if err := s.Append([]Record{reportRec(int64(i), "d", "pd", int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Segments > 2 {
		t.Errorf("Segments = %d, want <= 2", st.Segments)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) > 2 {
		t.Errorf("%d segment files on disk, want <= 2", len(entries))
	}
	if st.Records >= 40 {
		t.Errorf("working set kept all %d records despite retention", st.Records)
	}
	// The aggregate tracks the surviving records, not history.
	recs := s.Records()
	var want int64
	for _, r := range recs {
		want += r.Report.Counters["pd.iterations"]
	}
	if got := s.AggregateCounters()["pd.iterations"]; got != want {
		t.Errorf("aggregate = %d, want %d (working set only)", got, want)
	}
}

// TestStoreSkipsRetiredBenchRecords: a lake written before the bench
// record kind was retired may hold "kind":"bench" lines. Replay logs,
// counts and skips them like any unknown kind; the records around them and
// the counter aggregate survive.
func TestStoreSkipsRetiredBenchRecords(t *testing.T) {
	dir := t.TempDir()
	var seg strings.Builder
	for _, payload := range []string{
		mustJSON(t, reportRec(100, "d1", "pd", 10)),
		`{"schema":1,"kind":"bench","t_ms":200,"commit":"c1","bench":{"rows":{"BenchmarkX":{"ns/op":42}}}}`,
		mustJSON(t, scenarioRec(300, "churnchaos", true)),
	} {
		fmt.Fprintf(&seg, "%08x %s\n", crc32.ChecksumIEEE([]byte(payload)), payload)
	}
	if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf(segPattern, 1)), []byte(seg.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	s := openTestStore(t, dir)
	defer s.Close()
	got := s.Records()
	if len(got) != 2 || got[0].Kind != KindReport || got[1].Kind != KindScenario {
		t.Fatalf("replayed %+v, want the report and the scenario only", got)
	}
	if st := s.Stats(); st.ReplaySkipped != 1 {
		t.Errorf("ReplaySkipped = %d, want 1 (the bench line)", st.ReplaySkipped)
	}
	if agg := s.AggregateCounters(); agg["pd.iterations"] != 3 {
		t.Errorf("counter aggregate = %v, want pd.iterations 3", agg)
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestStoreConcurrentAppend exercises the mutex under -race: concurrent
// appends and reads must not trip the detector or lose records.
func TestStoreConcurrentAppend(t *testing.T) {
	s := openTestStore(t, t.TempDir())
	defer s.Close()
	var wg sync.WaitGroup
	const writers, per = 8, 25
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				_ = s.Append([]Record{reportRec(int64(w*1000+i), "d", "pd", 1)})
				_ = s.Records()
				_ = s.Stats()
			}
		}(w)
	}
	wg.Wait()
	if st := s.Stats(); st.Appended != writers*per {
		t.Errorf("Appended = %d, want %d", st.Appended, writers*per)
	}
}

// TestStoreClosedAppend: appends after Close fail instead of panicking.
func TestStoreClosedAppend(t *testing.T) {
	s := openTestStore(t, t.TempDir())
	s.Close()
	if err := s.Append([]Record{reportRec(1, "d", "pd", 1)}); err == nil {
		t.Fatal("append after Close succeeded")
	}
}
