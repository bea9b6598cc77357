package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/jobs"
	"repro/internal/scenario"
	"repro/internal/server"
	"repro/internal/telemetry"
)

// startDaemon brings up an in-process streakd with the fault spec armed
// (empty = no faults) and a telemetry lake mounted.
func startDaemon(t *testing.T, faultSpec string) (*server.Server, *httptest.Server, *telemetry.Service) {
	t.Helper()
	base := context.Background()
	if faultSpec != "" {
		plan, err := faultinject.ParseSpec(faultSpec)
		if err != nil {
			t.Fatalf("parsing fault spec %q: %v", faultSpec, err)
		}
		base = faultinject.With(base, plan)
	}
	store, err := telemetry.OpenStore(telemetry.StoreConfig{Dir: t.TempDir(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	telem := telemetry.NewService(store, 0, t.Logf)
	s := server.New(server.Config{
		MaxInflight: 4,
		BaseContext: base,
		JobStore:    jobs.NewMemStore(),
		JobWorkers:  2,
		Telemetry:   telem,
		Logf:        t.Logf,
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		s.Drain(ctx)
		ts.Close()
		telem.Close(ctx)
	})
	return s, ts, telem
}

// TestChurnScenarioEndToEnd: the acceptance path — a seeded churn
// scenario against a live server exits 0 with every invariant green, the
// report lands on disk and in the telemetry lake.
func TestChurnScenarioEndToEnd(t *testing.T) {
	_, ts, telem := startDaemon(t, "")
	reportPath := filepath.Join(t.TempDir(), "report.json")

	var out, errb bytes.Buffer
	code := run([]string{
		"-target", ts.URL, "-scenario", "churn", "-seed", "42",
		"-requests", "14", "-speed", "50", "-rate", "40",
		"-report", reportPath, "-push",
	}, &out, &errb)
	if code != 0 {
		t.Fatalf("streakload exited %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "[PASS] transport-clean") {
		t.Fatalf("verdict missing invariant table:\n%s", out.String())
	}

	data, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep telemetry.ScenarioReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Name != "churn" || rep.Seed != 42 || !rep.Passed || rep.Requests != 14 {
		t.Fatalf("report %+v", rep)
	}
	// Churn must actually exercise the cache: with repeats and mutations,
	// 2xx responses carry hit/incremental/cold labels.
	if len(rep.ByCache) == 0 {
		t.Fatalf("churn run saw no cache outcomes: %+v", rep.ByStatus)
	}
	// The push landed in the lake.
	recs := telem.Store().Records()
	found := false
	for _, r := range recs {
		if r.Kind == telemetry.KindScenario && r.Scenario != nil && r.Scenario.Name == "churn" {
			found = true
		}
	}
	if !found {
		t.Fatal("scenario report not in the telemetry lake")
	}
}

// TestChurnChaosWithFaultsArmed: the soak path — the scenario's own fault
// plan armed on the daemon, injected failures attributed, invariants
// green, exit 0.
func TestChurnChaosWithFaultsArmed(t *testing.T) {
	// The program is built twice (once here for the spec, once inside run);
	// same seed + config = same program, so the spec matches what fires.
	prog, err := scenario.Generate("churnchaos", scenario.Config{
		Seed: 7, Requests: 16, Scale: 0.05, Rate: 40, BusWidth: 48,
	})
	if err != nil {
		t.Fatal(err)
	}
	if prog.FaultSpec == "" {
		t.Fatal("churnchaos carries no fault plan")
	}
	_, ts, _ := startDaemon(t, prog.FaultSpec)

	var out, errb bytes.Buffer
	code := run([]string{
		"-target", ts.URL, "-scenario", "churnchaos", "-seed", "7",
		"-requests", "16", "-scale", "0.05", "-rate", "40", "-bus-width", "48",
		"-speed", "50", "-faults-armed",
	}, &out, &errb)
	if code != 0 {
		t.Fatalf("streakload exited %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
}

// TestUninjected500FailsTheRun: a daemon with faults armed that the
// driver was NOT told about must flag no-uninjected-5xx — the harness
// proves it can actually catch a hostile server, not just bless a
// healthy one. pd.solve panics surface as 500s whose body does not carry
// the faultinject marker (the guard reports only the panic text).
func TestUninjected500FailsTheRun(t *testing.T) {
	_, ts, _ := startDaemon(t, "pd.solve=error:surprise#100")

	var out, errb bytes.Buffer
	code := run([]string{
		"-target", ts.URL, "-scenario", "churn", "-seed", "3",
		"-requests", "6", "-speed", "50", "-rate", "40", "-jobs-frac", "0",
	}, &out, &errb)
	if code != 1 {
		t.Fatalf("streakload exited %d against a faulting server, want 1\nstdout:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "[FAIL] no-uninjected-5xx") {
		t.Fatalf("expected no-uninjected-5xx failure:\n%s", out.String())
	}
}

// TestReplayFromCapture: record traffic through the server's capture
// hook, then replay the ring end to end.
func TestReplayFromCapture(t *testing.T) {
	dir := t.TempDir()
	cap, err := scenario.OpenCapture(dir, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{Recorder: cap, Logf: t.Logf})
	rec := httptest.NewServer(srv.Handler())
	prog, err := scenario.Generate("churn", scenario.Config{Seed: 9, Requests: 5, Rate: 1000})
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range prog.Requests {
		body, _ := json.Marshal(req.Design)
		resp, err := http.Post(rec.URL+"/route", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	rec.Close()
	if err := cap.Close(); err != nil {
		t.Fatal(err)
	}

	_, ts, _ := startDaemon(t, "")
	var out, errb bytes.Buffer
	code := run([]string{"-target", ts.URL, "-replay", dir, "-speed", "50"}, &out, &errb)
	if code != 0 {
		t.Fatalf("replay exited %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	if !strings.Contains(errb.String(), "firing") || !strings.Contains(errb.String(), "replay:"+dir) {
		t.Fatalf("replay banner missing:\n%s", errb.String())
	}
}

// TestDigestMode: -digest is stable across invocations and never needs a
// target.
func TestDigestMode(t *testing.T) {
	var a, b, errb bytes.Buffer
	if code := run([]string{"-scenario", "burst", "-seed", "5", "-digest"}, &a, &errb); code != 0 {
		t.Fatalf("digest exited %d: %s", code, errb.String())
	}
	if code := run([]string{"-scenario", "burst", "-seed", "5", "-digest"}, &b, &errb); code != 0 {
		t.Fatalf("digest exited %d: %s", code, errb.String())
	}
	if a.String() != b.String() || len(strings.TrimSpace(a.String())) != 64 {
		t.Fatalf("digest not stable: %q vs %q", a.String(), b.String())
	}
}

// TestUsageErrors: bad scenario names and a missing target are usage
// errors (2), not invariant failures.
func TestUsageErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-scenario", "nope", "-digest"}, &out, &errb); code != 2 {
		t.Fatalf("unknown scenario exited %d, want 2", code)
	}
	if code := run([]string{"-scenario", "churn"}, &out, &errb); code != 2 {
		t.Fatalf("missing target exited %d, want 2", code)
	}
}
