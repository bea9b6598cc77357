package telemetry

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func scenarioRec(t int64, name string, passed bool) Record {
	return Record{
		Schema: SchemaVersion,
		Kind:   KindScenario,
		TimeMS: t,
		Source: "streakload",
		Scenario: &ScenarioReport{
			Name: name, Seed: 42, Digest: "abc", DurationMS: 1200,
			Requests: 60, ShedFrac: 0.1, Passed: passed,
			Invariants: []ScenarioInvariant{{Name: "transport-clean", OK: passed}},
		},
	}
}

// TestScenarioRecordSurvivesReplay: scenario records are a first-class
// stored kind — they must round-trip the WAL framing and boot replay like
// reports.
func TestScenarioRecordSurvivesReplay(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir)
	if err := s.Append([]Record{scenarioRec(100, "churnchaos", true)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openTestStore(t, dir)
	defer s2.Close()
	got := s2.Records()
	if len(got) != 1 {
		t.Fatalf("replayed %d records, want 1", len(got))
	}
	if got[0].Kind != KindScenario || got[0].Scenario == nil || got[0].Scenario.Name != "churnchaos" {
		t.Fatalf("replayed scenario mangled: %+v", got[0])
	}
	if !got[0].Scenario.Passed || len(got[0].Scenario.Invariants) != 1 {
		t.Fatalf("scenario verdict mangled: %+v", got[0].Scenario)
	}
	if st := s2.Stats(); st.ReplaySkipped != 0 {
		t.Fatalf("clean replay skipped %d records", st.ReplaySkipped)
	}
}

// TestScenarioIngestAndQuery: the HTTP tier — POST stores durably, GET
// filters by name, PushScenario round-trips end to end.
func TestScenarioIngestAndQuery(t *testing.T) {
	svc := NewService(openTestStore(t, t.TempDir()), 0, t.Logf)
	defer svc.Close(context.Background())
	mux := http.NewServeMux()
	svc.Register(mux, nil)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	if err := PushScenario(context.Background(), ts.URL, "ci", ScenarioReport{
		Name: "churnchaos", Seed: 7, Passed: true, Requests: 40,
	}); err != nil {
		t.Fatalf("PushScenario: %v", err)
	}
	if err := PushScenario(context.Background(), ts.URL, "", ScenarioReport{
		Name: "burst", Seed: 7, Passed: false,
	}); err != nil {
		t.Fatalf("PushScenario 2: %v", err)
	}

	// Nameless reports are rejected before anything persists.
	resp, err := http.Post(ts.URL+"/telemetry/v1/scenarios", "application/json", strings.NewReader(`{"seed":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("nameless scenario: status %d, want 400", resp.StatusCode)
	}

	get := func(url string) []Record {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", url, resp.StatusCode)
		}
		var out []Record
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	all := get(ts.URL + "/telemetry/v1/scenarios")
	if len(all) != 2 {
		t.Fatalf("got %d scenario records, want 2", len(all))
	}
	if all[0].Source != "ci" || all[1].Source != "streakload" {
		t.Fatalf("sources = %s, %s", all[0].Source, all[1].Source)
	}
	churn := get(ts.URL + "/telemetry/v1/scenarios?name=churnchaos")
	if len(churn) != 1 || !churn[0].Scenario.Passed {
		t.Fatalf("name filter returned %+v", churn)
	}
}
