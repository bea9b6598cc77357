package server

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/telemetry"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(raw)
}

// TestMetricsEndpoint pins the Prometheus exposition with telemetry
// disabled: admission counters, cache statistics and the process-lifetime
// solver counter aggregate must all be present after one solve — the lake
// is optional, the scrape surface is not.
func TestMetricsEndpoint(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if resp := post(t, ts, "/route", designBody(t, testDesign(t)), nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("route status = %d", resp.StatusCode)
	}
	code, body := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics status = %d", code)
	}
	for _, want := range []string{
		"streak_up 1",
		"streak_served_total 1",
		"streak_max_inflight",
		"streak_cache_misses_total",
		`streak_solver_counter_total{name="pd.iterations"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if strings.Contains(body, "streak_telemetry_") {
		t.Error("telemetry family exposed with the lake disabled")
	}
}

// TestTelemetryWiredIntoSolvePath is the producer integration: with a lake
// configured, synchronous solves flow through the non-blocking client into
// the store and come back from the series endpoint, and /metrics exposes
// the producer counters.
func TestTelemetryWiredIntoSolvePath(t *testing.T) {
	store, err := telemetry.OpenStore(telemetry.StoreConfig{Dir: t.TempDir(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	svc := telemetry.NewService(store, 64, t.Logf)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		svc.Close(ctx)
	}()

	s := New(Config{Telemetry: svc})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	d := testDesign(t)
	// Same design twice: the second serve is a cache hit, so the series
	// sees both a cold and a hit outcome.
	for i := 0; i < 2; i++ {
		if resp := post(t, ts, "/route", designBody(t, d), nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("route %d status = %d", i, resp.StatusCode)
		}
	}

	// The push path is asynchronous by design; poll the store briefly.
	deadline := time.Now().Add(5 * time.Second)
	var series telemetry.Series
	for {
		series, err = telemetry.ComputeSeries(store.Records(), telemetry.SeriesOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if series.Samples >= 2 || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if series.Samples != 2 {
		t.Fatalf("lake has %d samples, want 2", series.Samples)
	}
	lat := series.Latency["Primal-Dual"]
	if lat == nil || lat.Count != 2 || lat.P50US <= 0 {
		t.Errorf("latency = %+v", lat)
	}
	if series.Cache == nil || series.Cache.Hits != 1 || series.Cache.Cold != 1 {
		t.Errorf("cache mix = %+v", series.Cache)
	}

	_, body := get(t, ts.URL+"/metrics")
	for _, want := range []string{"streak_telemetry_pushed_total 2", "streak_telemetry_dropped_total 0"} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// The query endpoints are mounted on the same mux as /route.
	if code, body := get(t, ts.URL+"/telemetry/v1/series?metric=solve_latency"); code != http.StatusOK || !strings.Contains(body, "p50_us") {
		t.Errorf("series endpoint: %d %s", code, body)
	}
	if code, _ := get(t, ts.URL+"/debug/telemetry"); code != http.StatusOK {
		t.Errorf("dashboard status = %d", code)
	}
}

// TestTelemetryRecordsFailedSyncSolve pins that a synchronous solve that
// fails still reaches the lake: a request whose only solver panics (500)
// and a clean one (200) leave two report records.
func TestTelemetryRecordsFailedSyncSolve(t *testing.T) {
	store, err := telemetry.OpenStore(telemetry.StoreConfig{Dir: t.TempDir(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	svc := telemetry.NewService(store, 64, t.Logf)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		svc.Close(ctx)
	}()

	plan := faultinject.NewPlan().
		Arm(faultinject.PDSolve, faultinject.Action{Panic: "chaos", Times: 1})
	s := New(Config{Telemetry: svc, BaseContext: faultinject.With(context.Background(), plan)})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	d := testDesign(t)
	for i, want := range []int{http.StatusInternalServerError, http.StatusOK} {
		if resp := post(t, ts, "/route", designBody(t, d), nil); resp.StatusCode != want {
			t.Fatalf("route %d status = %d, want %d", i, resp.StatusCode, want)
		}
	}

	// The push path is asynchronous by design; poll the store briefly.
	deadline := time.Now().Add(5 * time.Second)
	var n int
	for {
		n = 0
		for _, r := range store.Records() {
			if r.Kind == telemetry.KindReport && r.Source == "streakd" {
				n++
			}
		}
		if n >= 2 || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if n != 2 {
		t.Fatalf("lake has %d report records, want 2 (the failed solve and the clean one)", n)
	}
}

// TestTelemetryAsyncJobAttemptsRecorded: async job attempts are pushed
// into the lake with source "jobs" and their attempt number.
func TestTelemetryAsyncJobAttemptsRecorded(t *testing.T) {
	store, err := telemetry.OpenStore(telemetry.StoreConfig{Dir: t.TempDir(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	svc := telemetry.NewService(store, 64, t.Logf)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		svc.Close(ctx)
	}()

	s := New(Config{Telemetry: svc, JobStore: jobs.NewMemStore()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Drain(ctx)
	})

	var view struct{ ID string }
	if resp := post(t, ts, "/jobs", designBody(t, testDesign(t)), &view); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		var found bool
		for _, r := range store.Records() {
			if r.Source == "jobs" && r.Report != nil && r.Report.Attempt == 1 {
				found = true
			}
		}
		if found {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no jobs-sourced record in the lake; records: %+v", store.Records())
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// TestRecordSolveKeepsRunSpan pins the lake record's duration to the
// solve's run span: the server's elapsed time, which also counts body
// decode and admission wait, stands in only for a recorder without a run
// span, as on a cache hit.
func TestRecordSolveKeepsRunSpan(t *testing.T) {
	store, err := telemetry.OpenStore(telemetry.StoreConfig{Dir: t.TempDir(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	svc := telemetry.NewService(store, 64, t.Logf)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		svc.Close(ctx)
	}()
	s := New(Config{Telemetry: svc})

	solved := obs.NewRecorder()
	sp := solved.StartSpan("run")
	time.Sleep(3 * time.Millisecond)
	sp.End()
	span := solved.Report().SpanTotal("run").Microseconds()
	s.recordSolve(solved, nil, time.Hour, "solved")
	s.recordSolve(obs.NewRecorder(), nil, 2*time.Second, "hit")

	want := map[string]int64{"solved": span, "hit": (2 * time.Second).Microseconds()}
	deadline := time.Now().Add(5 * time.Second)
	var recs []telemetry.Record
	for len(recs) < len(want) && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		recs = store.Records()
	}
	if len(recs) != len(want) {
		t.Fatalf("lake has %d records, want %d", len(recs), len(want))
	}
	for _, r := range recs {
		if got := r.Report.DurUS; got != want[r.Source] {
			t.Errorf("%s: dur_us = %d, want %d", r.Source, got, want[r.Source])
		}
	}
}
