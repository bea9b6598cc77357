package telemetry

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestDashboardEscapesStoredStrings runs the dashboard's script under node
// against a series whose design and method names are markup, as any
// POST /route or POST /telemetry/v1/reports client can store them. The
// rendered tables must show the names as text, never as tags.
func TestDashboardEscapesStoredStrings(t *testing.T) {
	node, err := exec.LookPath("node")
	if err != nil {
		t.Skip("node not on PATH")
	}
	const design, method = `<img src=x onerror=alert(1)>`, `<b>pd</b>`
	rec := reportRec(1, design, method, 10)
	rec.Report.Congestion = &CongestionSummary{MeanUtilPct: 12.5}
	series, err := ComputeSeries([]Record{rec}, SeriesOptions{})
	if err != nil {
		t.Fatal(err)
	}
	seriesJSON, err := json.Marshal(series)
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(dashboardHTML, "<script>")
	script, _, ok2 := strings.Cut(rest, "</script>")
	if !ok || !ok2 {
		t.Fatal("dashboard has no <script> block")
	}

	// Stub DOM: every element is a plain object whose innerHTML the test
	// reads back once the page's first load() has settled.
	harness := `const els = {};
globalThis.document = { getElementById: id =>
  (els[id] ??= { value: '', innerHTML: '', textContent: '', addEventListener() {} }) };
globalThis.fetch = async url => ({ json: async () =>
  url.startsWith('/telemetry/v1/series') ? ` + string(seriesJSON) + ` : {} });
globalThis.setInterval = () => 0;
` + script + `
setTimeout(() => process.stdout.write(JSON.stringify(
  { latency: els.latency.innerHTML, drift: els.drift.innerHTML })), 0);
`
	path := filepath.Join(t.TempDir(), "dashboard.js")
	if err := os.WriteFile(path, []byte(harness), 0o644); err != nil {
		t.Fatal(err)
	}
	var stderr strings.Builder
	cmd := exec.Command(node, path)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("node: %v\n%s", err, stderr.String())
	}
	var tables map[string]string
	if err := json.Unmarshal(out, &tables); err != nil {
		t.Fatalf("decoding node output %q: %v", out, err)
	}
	for id, html := range tables {
		if strings.Contains(html, "<img") || strings.Contains(html, "<b>") {
			t.Errorf("%s table renders a stored name as markup: %s", id, html)
		}
	}
	if !strings.Contains(tables["drift"], "&lt;img") {
		t.Errorf("drift table lost the escaped design name: %s", tables["drift"])
	}
	if !strings.Contains(tables["latency"], "&lt;b&gt;pd&lt;/b&gt;") {
		t.Errorf("latency table lost the escaped method name: %s", tables["latency"])
	}
}
