package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/obs"
)

// maxIngestBytes bounds ingest request bodies.
const maxIngestBytes = 8 << 20

// Service bundles the lake's three tiers for mounting in streakd: the
// durable Store, the non-blocking producer Client the server pushes its
// own solves through, and the HTTP ingest/query handlers.
type Service struct {
	store  *Store
	client *Client
}

// NewService wraps a store with a producer client (buffer <= 0 means the
// client default). logf receives ingest diagnostics.
func NewService(store *Store, buffer int, logf func(format string, args ...any)) *Service {
	return &Service{store: store, client: NewClient(store, buffer, logf)}
}

// Client returns the producer side (Push never blocks).
func (s *Service) Client() *Client { return s.client }

// Store returns the embedded segment store.
func (s *Service) Store() *Store { return s.store }

// Close flushes the client's buffer into the store, then seals the store.
func (s *Service) Close(ctx context.Context) error {
	cerr := s.client.Close(ctx)
	if err := s.store.Close(); err != nil {
		return err
	}
	return cerr
}

// Register mounts the telemetry endpoints on mux. wrap (optional) lets the
// caller thread its panic-isolation middleware around each handler.
func (s *Service) Register(mux *http.ServeMux, wrap func(http.HandlerFunc) http.HandlerFunc) {
	if wrap == nil {
		wrap = func(h http.HandlerFunc) http.HandlerFunc { return h }
	}
	mux.HandleFunc("POST /telemetry/v1/reports", wrap(s.HandleIngestReport))
	mux.HandleFunc("POST /telemetry/v1/scenarios", wrap(s.HandleIngestScenario))
	mux.HandleFunc("GET /telemetry/v1/scenarios", wrap(s.HandleScenarios))
	mux.HandleFunc("GET /telemetry/v1/series", wrap(s.HandleSeries))
	mux.HandleFunc("GET /telemetry/v1/stats", wrap(s.HandleStats))
	mux.HandleFunc("GET /debug/telemetry", wrap(s.HandleDashboard))
}

// HandleIngestReport is POST /telemetry/v1/reports: the body is one
// obs.Report (schema-versioned); ?source= names the producer. The report
// is distilled and appended durably before the 202.
func (s *Service) HandleIngestReport(w http.ResponseWriter, r *http.Request) {
	var rep obs.Report
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxIngestBytes)).Decode(&rep); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("decoding obs report: %v", err))
		return
	}
	if rep.Schema > obs.SchemaVersion {
		httpError(w, http.StatusBadRequest,
			fmt.Sprintf("report schema %d is newer than this server's %d", rep.Schema, obs.SchemaVersion))
		return
	}
	source := r.URL.Query().Get("source")
	if source == "" {
		source = "ingest"
	}
	rec := NewReportRecord(source, DistillReport(rep))
	// An ingested report carries its producing binary's revision, not this
	// process's.
	if c := rep.Labels["vcs_revision"]; c != "" {
		rec.Commit = c
	}
	if err := s.store.Append([]Record{rec}); err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]any{"stored": 1, "kind": KindReport})
}

// HandleIngestScenario is POST /telemetry/v1/scenarios: the body is one
// ScenarioReport; ?source= names the pusher (default "streakload"). The
// report lands durably before the 202, so a CI soak's verdict survives
// the runner.
func (s *Service) HandleIngestScenario(w http.ResponseWriter, r *http.Request) {
	var sr ScenarioReport
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxIngestBytes)).Decode(&sr); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("decoding scenario report: %v", err))
		return
	}
	if sr.Name == "" {
		httpError(w, http.StatusBadRequest, "scenario report has no name")
		return
	}
	source := r.URL.Query().Get("source")
	if source == "" {
		source = "streakload"
	}
	if err := s.store.Append([]Record{NewScenarioRecord(source, sr)}); err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]any{"stored": 1, "kind": KindScenario, "name": sr.Name})
}

// HandleScenarios is GET /telemetry/v1/scenarios[?name=...]: the stored
// scenario runs, oldest first, optionally filtered by scenario name.
func (s *Service) HandleScenarios(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	out := []Record{}
	for _, rec := range s.store.Records() {
		if rec.Kind != KindScenario || rec.Scenario == nil {
			continue
		}
		if name != "" && rec.Scenario.Name != name {
			continue
		}
		out = append(out, rec)
	}
	writeJSON(w, http.StatusOK, out)
}

// HandleSeries is GET /telemetry/v1/series?metric=...&window=...: the
// aggregated report series (see ComputeSeries).
func (s *Service) HandleSeries(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	opt := SeriesOptions{Metric: q.Get("metric")}
	if ws := q.Get("window"); ws != "" {
		d, err := time.ParseDuration(ws)
		if err != nil || d < 0 {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("bad window %q (want a duration like 15m)", ws))
			return
		}
		opt.Window = d
	}
	series, err := ComputeSeries(s.store.Records(), opt)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, series)
}

// HandleStats is GET /telemetry/v1/stats: store and producer counters.
func (s *Service) HandleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"store":  s.store.Stats(),
		"client": s.client.Stats(),
	})
}

// HandleDashboard is GET /debug/telemetry: a small self-contained HTML
// view over the series endpoint.
func (s *Service) HandleDashboard(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, dashboardHTML)
}

// PushScenario posts one scenario report to the ingest endpoint rooted at
// baseURL. Non-2xx responses become errors carrying the server's message.
func PushScenario(ctx context.Context, baseURL, source string, sr ScenarioReport) error {
	body, err := json.Marshal(sr)
	if err != nil {
		return fmt.Errorf("telemetry: encoding scenario report: %w", err)
	}
	url := strings.TrimRight(baseURL, "/") + "/telemetry/v1/scenarios"
	if source != "" {
		url += "?source=" + source
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("telemetry: building scenario push: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return fmt.Errorf("telemetry: pushing scenario report: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("telemetry: scenario push rejected: %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	return nil
}

func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
