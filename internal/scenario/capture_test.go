package scenario

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/benchgen"
)

// TestCaptureRoundTrip: Record → ReadCapture → ProgramFromCapture
// preserves order, spacing, and bodies.
func TestCaptureRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCapture(dir, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Deterministic capture clock: 250ms apart.
	now := time.UnixMilli(1_000_000)
	c.now = func() time.Time { now = now.Add(250 * time.Millisecond); return now }

	d := benchgen.SingleBitGroups(1, 4, 32, 32)
	body, _ := json.Marshal(d)
	paths := []string{"/route", "/jobs", "/route"}
	for i, p := range paths {
		q := ""
		if i == 2 {
			q = "cache=off"
		}
		if err := c.Record(p, q, body); err != nil {
			t.Fatalf("Record %d: %v", i, err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	reqs, skipped, err := ReadCapture(dir)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 || len(reqs) != 3 {
		t.Fatalf("ReadCapture: %d reqs, %d skipped", len(reqs), skipped)
	}
	for i, cr := range reqs {
		if cr.Path != paths[i] {
			t.Fatalf("req %d path %q, want %q", i, cr.Path, paths[i])
		}
	}
	if reqs[2].Query != "cache=off" {
		t.Fatalf("req 2 query %q", reqs[2].Query)
	}

	prog, dropped, err := ProgramFromCapture("replay", reqs)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 0 || len(prog.Requests) != 3 {
		t.Fatalf("ProgramFromCapture: %d reqs, %d dropped", len(prog.Requests), dropped)
	}
	if prog.Requests[0].At != 0 {
		t.Fatalf("first replay offset %v, want 0", prog.Requests[0].At)
	}
	if got := prog.Requests[2].At; got != 500*time.Millisecond {
		t.Fatalf("third replay offset %v, want 500ms", got)
	}
	if err := prog.Requests[0].Design.Validate(); err != nil {
		t.Fatalf("replayed design invalid: %v", err)
	}
}

// TestCaptureRing: tiny segments force rotation; the ring keeps only the
// newest `keep` segments, and a corrupt tail line is skipped, not fatal.
func TestCaptureRing(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCapture(dir, 256, 2)
	if err != nil {
		t.Fatal(err)
	}
	d := benchgen.SingleBitGroups(2, 3, 24, 24)
	body, _ := json.Marshal(d)
	for i := 0; i < 20; i++ {
		if err := c.Record("/route", fmt.Sprintf("i=%d", i), body); err != nil {
			t.Fatalf("Record %d: %v", i, err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := captureSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) > 2 {
		t.Fatalf("ring kept %d segments, want <= 2", len(segs))
	}
	reqs, _, err := ReadCapture(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) == 0 || len(reqs) >= 20 {
		t.Fatalf("ring holds %d requests, want a strict recent subset", len(reqs))
	}
	// Newest request must survive pruning.
	if got := reqs[len(reqs)-1].Query; got != "i=19" {
		t.Fatalf("newest surviving request is %q, want i=19", got)
	}

	// Corrupt tail: append garbage to the newest segment.
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("{half a rec")
	f.Close()
	reqs2, skipped, err := ReadCapture(dir)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 1 || len(reqs2) != len(reqs) {
		t.Fatalf("corrupt tail: %d reqs %d skipped, want %d reqs 1 skipped", len(reqs2), skipped, len(reqs))
	}

	// Reopening resumes numbering past existing segments.
	c2, err := OpenCapture(dir, 256, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.Record("/route", "resumed", body); err != nil {
		t.Fatal(err)
	}
	c2.Close()
	segs2, _ := captureSegments(dir)
	if filepath.Base(segs2[len(segs2)-1]) <= filepath.Base(segs[len(segs)-1]) {
		t.Fatalf("reopen did not advance segment numbering: %v -> %v", segs, segs2)
	}
}

// captureSegments lists the ring's segment files, oldest first.
func captureSegments(dir string) ([]string, error) {
	return filepath.Glob(filepath.Join(dir, captureName+"-*.seg"))
}
