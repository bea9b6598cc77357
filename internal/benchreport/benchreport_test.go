package benchreport

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkPairCost 	       1	     34919 ns/op	       720.0 lookups/op
BenchmarkTable1PrimalDual/Industry1-8 	       2	  51234567 ns/op	      98.75 route%	       1.25 reg%	  123456 B/op	    1234 allocs/op
PASS
ok  	repro	0.113s
`

func TestParseBenchOutput(t *testing.T) {
	got, err := ParseBenchOutput(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("parsed %d rows, want 2: %+v", len(got), got)
	}
	if got[0].Name != "BenchmarkPairCost" || got[0].Iterations != 1 {
		t.Errorf("row 0 = %+v", got[0])
	}
	if got[0].Metrics["ns/op"] != 34919 || got[0].Metrics["lookups/op"] != 720 {
		t.Errorf("row 0 metrics = %v", got[0].Metrics)
	}
	b := got[1]
	if b.Name != "BenchmarkTable1PrimalDual/Industry1-8" || b.Iterations != 2 {
		t.Errorf("row 1 = %+v", b)
	}
	want := map[string]float64{
		"ns/op": 51234567, "route%": 98.75, "reg%": 1.25, "B/op": 123456, "allocs/op": 1234,
	}
	for unit, v := range want {
		if b.Metrics[unit] != v {
			t.Errorf("metric %s = %v, want %v", unit, b.Metrics[unit], v)
		}
	}
}

func TestParseBenchOutputRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"BenchmarkX 12 34919 ns/op extra\n",        // odd value/unit fields
		"BenchmarkX 12 notanumber ns/op\n",         // bad value
		"BenchmarkX 99999999999999999999 5 x/op\n", // iteration overflow
	} {
		if _, err := ParseBenchOutput(strings.NewReader(bad)); err == nil {
			t.Errorf("no error for %q", bad)
		}
	}
}

func file(rows ...Benchmark) File {
	return File{Schema: SchemaVersion, Benchmarks: rows}
}

func row(name string, metrics map[string]float64) Benchmark {
	return Benchmark{Name: name, Iterations: 1, Metrics: metrics}
}

// TestCompareSelfIsZeroDelta pins the round-trip acceptance criterion:
// comparing an artifact against itself yields all-unchanged deltas and no
// regressions.
func TestCompareSelfIsZeroDelta(t *testing.T) {
	f := file(
		row("BenchmarkA", map[string]float64{"ns/op": 1000, "route%": 99.5}),
		row("domain/Industry3@0.06", map[string]float64{"wl": 123456, "overflow": 0}),
	)
	// Round-trip through JSON, as the CLI does with -in.
	raw, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	var back File
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	deltas := Compare(f, back, 0.30)
	if len(deltas) != 4 {
		t.Fatalf("got %d deltas, want 4: %+v", len(deltas), deltas)
	}
	for _, d := range deltas {
		if d.Ratio != 1 || d.Regressed {
			t.Errorf("self-compare delta not clean: %+v", d)
		}
	}
	if n := len(Regressions(deltas)); n != 0 {
		t.Errorf("%d regressions on self-compare", n)
	}
}

func TestCompareFlagsRegressions(t *testing.T) {
	old := file(row("B", map[string]float64{
		"ns/op": 1000, "route%": 100, "lookups/op": 50,
	}))
	newer := file(row("B", map[string]float64{
		"ns/op": 1400, "route%": 60, "lookups/op": 500,
	}))
	deltas := Compare(old, newer, 0.30)
	got := map[string]bool{}
	for _, d := range deltas {
		got[d.Metric] = d.Regressed
	}
	if !got["ns/op"] {
		t.Error("40% ns/op slowdown not flagged at 30% threshold")
	}
	if !got["route%"] {
		t.Error("routed-fraction collapse not flagged")
	}
	if got["lookups/op"] {
		t.Error("informational metric flagged as regression")
	}
}

func TestCompareWithinThresholdPasses(t *testing.T) {
	old := file(row("B", map[string]float64{"ns/op": 1000, "route%": 100}))
	newer := file(row("B", map[string]float64{"ns/op": 1200, "route%": 95}))
	if regs := Regressions(Compare(old, newer, 0.30)); len(regs) != 0 {
		t.Errorf("within-threshold moves flagged: %+v", regs)
	}
}

func TestCompareThresholdsPerUnit(t *testing.T) {
	old := file(row("B", map[string]float64{
		"ns/op": 1000, "allocs/op": 100, "B/op": 4096,
	}))
	// ns/op +20% (inside the 30% default), allocations +20% (outside the
	// tighter 10% alloc bound) — only the alloc metrics must flag.
	newer := file(row("B", map[string]float64{
		"ns/op": 1200, "allocs/op": 120, "B/op": 4915,
	}))
	th := Thresholds{Default: 0.30, PerUnit: map[string]float64{"allocs/op": 0.10, "B/op": 0.10}}
	got := map[string]bool{}
	for _, d := range CompareThresholds(old, newer, th) {
		got[d.Metric] = d.Regressed
	}
	if got["ns/op"] {
		t.Error("20% ns/op move flagged despite 30% default threshold")
	}
	if !got["allocs/op"] || !got["B/op"] {
		t.Errorf("20%% allocation growth not flagged at 10%% alloc threshold: %+v", got)
	}
	// An allocation move inside the tighter bound stays green.
	ok := file(row("B", map[string]float64{"ns/op": 1000, "allocs/op": 105, "B/op": 4096}))
	if regs := Regressions(CompareThresholds(old, ok, th)); len(regs) != 0 {
		t.Errorf("within-alloc-threshold move flagged: %+v", regs)
	}
}

func TestCompareZeroBaseline(t *testing.T) {
	old := file(row("B", map[string]float64{"overflow": 0}))
	bad := file(row("B", map[string]float64{"overflow": 7}))
	if regs := Regressions(Compare(old, bad, 0.30)); len(regs) != 1 {
		t.Errorf("overflow from zero not flagged: %+v", regs)
	}
	same := file(row("B", map[string]float64{"overflow": 0}))
	if regs := Regressions(Compare(old, same, 0.30)); len(regs) != 0 {
		t.Errorf("zero-to-zero flagged: %+v", regs)
	}
}

func TestCompareIgnoresUnmatchedRows(t *testing.T) {
	old := file(row("Gone", map[string]float64{"ns/op": 1}))
	newer := file(row("New", map[string]float64{"ns/op": 99999}))
	if deltas := Compare(old, newer, 0.30); len(deltas) != 0 {
		t.Errorf("unmatched rows compared: %+v", deltas)
	}
}

func TestWriteDeltasMarksRegressions(t *testing.T) {
	var buf strings.Builder
	WriteDeltas(&buf, []Delta{
		{Name: "B", Metric: "ns/op", Old: 1, New: 2, Ratio: 2, Direction: -1, Regressed: true},
		{Name: "B", Metric: "route%", Old: 100, New: 100, Ratio: 1, Direction: 1},
	})
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if !strings.HasPrefix(lines[0], "!") {
		t.Errorf("regressed line not marked: %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], " ") {
		t.Errorf("clean line marked: %q", lines[1])
	}
}

func TestDomainMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("domain run in -short mode")
	}
	b, err := DomainMetrics(context.Background(), 1, 0.04)
	if err != nil {
		t.Fatal(err)
	}
	if b.Name != "domain/Industry1@0.04" {
		t.Errorf("name = %q", b.Name)
	}
	if b.Metrics["route%"] <= 0 || b.Metrics["wl"] <= 0 {
		t.Errorf("suspicious domain metrics: %v", b.Metrics)
	}
}
