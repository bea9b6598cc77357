package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func newTestService(t *testing.T) (*Service, *httptest.Server) {
	t.Helper()
	store := openTestStore(t, t.TempDir())
	svc := NewService(store, 16, t.Logf)
	mux := http.NewServeMux()
	svc.Register(mux, nil)
	ts := httptest.NewServer(mux)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		svc.Close(ctx)
	})
	return svc, ts
}

func postJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp
}

// TestIngestReportToSeries is the remote-fleet round trip: POST an
// obs.Report, then read it back aggregated from the series endpoint. A
// report from an older binary that still carries the removed "trace" and
// "series" fields must ingest too.
func TestIngestReportToSeries(t *testing.T) {
	_, ts := newTestService(t)

	rec := obs.NewRecorder()
	rec.SetLabel("bench", "remote-design")
	rec.SetLabel("method", "PrimalDual")
	rec.Add("pd.iterations", 7)
	older := json.RawMessage(`{"schema":1,"labels":{"bench":"old-design","method":"PrimalDual"},` +
		`"spans":[{"name":"solve.pd","start_us":0,"dur_us":900}],"counters":{"pd.iterations":3},` +
		`"trace":[{"name":"pd.commit","cat":"pd","start_us":10,"dur_us":5,"args":{"object":1}}],` +
		`"events_dropped":2,"series":{"pd":[{"elapsed_us":10,"objective":3000000,"routed":0}]}}`)
	for _, body := range []any{rec.Report(), older} {
		resp := postJSON(t, ts.URL+"/telemetry/v1/reports?source=fleet-7", body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("ingest status = %d", resp.StatusCode)
		}
	}

	var series Series
	if resp := getJSON(t, ts.URL+"/telemetry/v1/series?metric=all", &series); resp.StatusCode != http.StatusOK {
		t.Fatalf("series status = %d", resp.StatusCode)
	}
	if series.Samples != 2 {
		t.Fatalf("Samples = %d, want 2", series.Samples)
	}
	if series.Latency["PrimalDual"] == nil {
		t.Errorf("latency missing the ingested method: %+v", series.Latency)
	}
	if series.Rates == nil || series.Rates.Solves != 2 {
		t.Errorf("rates = %+v", series.Rates)
	}
}

// TestIngestReportRejectsNewerSchema: a report stamped by a future obs
// schema is a 400, not a silent mis-parse.
func TestIngestReportRejectsNewerSchema(t *testing.T) {
	_, ts := newTestService(t)
	resp := postJSON(t, ts.URL+"/telemetry/v1/reports",
		map[string]any{"schema": obs.SchemaVersion + 1})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}

func TestSeriesBadParams(t *testing.T) {
	_, ts := newTestService(t)
	for _, q := range []string{"?metric=bogus", "?window=yesterday", "?window=-5m"} {
		resp := getJSON(t, ts.URL+"/telemetry/v1/series"+q, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s status = %d, want 400", q, resp.StatusCode)
		}
	}
}

func TestStatsAndDashboard(t *testing.T) {
	svc, ts := newTestService(t)
	svc.Client().Push(reportRec(1, "d", "pd", 1))

	var st map[string]json.RawMessage
	if resp := getJSON(t, ts.URL+"/telemetry/v1/stats", &st); resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status = %d", resp.StatusCode)
	}
	for _, k := range []string{"store", "client"} {
		if _, ok := st[k]; !ok {
			t.Errorf("stats missing %q: %v", k, st)
		}
	}

	resp, err := http.Get(ts.URL + "/debug/telemetry")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dashboard status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/html") {
		t.Errorf("dashboard content type = %q", ct)
	}
}

// TestServiceEndToEndPersistence: solves pushed through the producer
// client land durably and survive a service restart on the same dir — the
// unit-scale version of the CI kill-and-restart smoke.
func TestServiceEndToEndPersistence(t *testing.T) {
	dir := t.TempDir()
	store := openTestStore(t, dir)
	svc := NewService(store, 64, t.Logf)
	for i := 0; i < 20; i++ {
		svc.Client().Push(reportRec(int64(i), fmt.Sprintf("d%d", i%3), "pd", int64(100+i)))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := svc.Close(ctx); err != nil {
		t.Fatal(err)
	}

	store2 := openTestStore(t, dir)
	svc2 := NewService(store2, 64, t.Logf)
	defer svc2.Close(ctx)
	series, err := ComputeSeries(store2.Records(), SeriesOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if series.Samples != 20 {
		t.Fatalf("after restart Samples = %d, want 20", series.Samples)
	}
	if series.Latency["pd"] == nil || series.Latency["pd"].P50US == 0 {
		t.Errorf("latency lost across restart: %+v", series.Latency)
	}
}
