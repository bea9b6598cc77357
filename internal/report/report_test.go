package report

import (
	"strings"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/grid"
)

func TestFormatRuntime(t *testing.T) {
	if got := FormatRuntime(2500*time.Millisecond, false, time.Hour); got != "2.5" {
		t.Errorf("FormatRuntime = %q", got)
	}
	if got := FormatRuntime(time.Hour, true, 3600*time.Second); got != "> 3600" {
		t.Errorf("timed out FormatRuntime = %q", got)
	}
}

func TestTable(t *testing.T) {
	var sb strings.Builder
	Table(&sb, "TABLE I", []string{"Route", "WL"}, []Row{
		{Bench: "Industry1", Cells: []string{"99.13%", "7.30"}},
		{Bench: "I2", Cells: []string{"99.59%", "17.93"}},
	})
	out := sb.String()
	if !strings.Contains(out, "TABLE I") || !strings.Contains(out, "Industry1") {
		t.Fatalf("table output:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 {
		t.Fatalf("want 5 lines, got %d:\n%s", len(lines), out)
	}
	// All data lines equal width (aligned).
	if len(lines[1]) != len(lines[3]) || len(lines[3]) != len(lines[4]) {
		t.Error("table rows not aligned")
	}
}

func TestHeatmap(t *testing.T) {
	g := grid.New(8, 8, grid.DefaultLayers(2, 2))
	u := grid.NewUsage(g)
	u.AddSeg(0, geom.S(geom.Pt(0, 3), geom.Pt(7, 3)), 3) // overflow row
	var sb strings.Builder
	Heatmap(&sb, u, 16)
	out := sb.String()
	if !strings.Contains(out, "@") {
		t.Errorf("overflow row missing '@':\n%s", out)
	}
	if !strings.Contains(out, "overflow edges: 7") {
		t.Errorf("legend missing:\n%s", out)
	}
}

func TestHeatmapDownsamples(t *testing.T) {
	g := grid.New(64, 64, grid.DefaultLayers(2, 2))
	u := grid.NewUsage(g)
	var sb strings.Builder
	Heatmap(&sb, u, 16)
	lines := strings.Split(sb.String(), "\n")
	// 64/16 = 4 cells per block -> 16 map rows + legend + trailing newline.
	if len(lines) != 18 {
		t.Errorf("lines = %d, want 18", len(lines))
	}
}

func TestCSV(t *testing.T) {
	var sb strings.Builder
	CSV(&sb, []string{"pins", "cpu"}, [][]string{{"100", "1.5"}, {"200", "3.0"}})
	want := "pins,cpu\n100,1.5\n200,3.0\n"
	if sb.String() != want {
		t.Errorf("CSV = %q", sb.String())
	}
}

func TestCongChar(t *testing.T) {
	cases := []struct {
		v    int
		want byte
	}{{0, ' '}, {199, ' '}, {200, '.'}, {500, ':'}, {800, '+'}, {1000, '#'}, {1500, '@'}}
	for _, c := range cases {
		if got := congChar(c.v); got != c.want {
			t.Errorf("congChar(%d) = %c, want %c", c.v, got, c.want)
		}
	}
}

// TestCongCharBoundaries pins the exact per-mille thresholds of the heatmap
// glyph ramp, including both sides of every boundary.
func TestCongCharBoundaries(t *testing.T) {
	cases := []struct {
		perMille int
		want     byte
	}{
		{0, ' '}, {199, ' '},
		{200, '.'}, {499, '.'},
		{500, ':'}, {799, ':'},
		{800, '+'}, {999, '+'},
		{1000, '#'},
		{1001, '@'}, {5000, '@'},
	}
	for _, c := range cases {
		if got := congChar(c.perMille); got != c.want {
			t.Errorf("congChar(%d) = %q, want %q", c.perMille, got, c.want)
		}
	}
}

// TestCSVQuoting pins RFC 4180 escaping: commas, quotes and newlines force
// quoting; embedded quotes double; plain fields stay unquoted.
func TestCSVQuoting(t *testing.T) {
	var sb strings.Builder
	CSV(&sb, []string{"name", "note"}, [][]string{
		{"plain", "no quoting needed"},
		{"with,comma", `say "hi"`},
		{"multi\nline", "cr\rfield"},
	})
	want := "name,note\n" +
		"plain,no quoting needed\n" +
		`"with,comma","say ""hi"""` + "\n" +
		"\"multi\nline\",\"cr\rfield\"\n"
	if sb.String() != want {
		t.Errorf("CSV quoting:\ngot  %q\nwant %q", sb.String(), want)
	}
}

func TestCSVFieldEdgeCases(t *testing.T) {
	cases := map[string]string{
		"":           "",
		"simple":     "simple",
		"a,b":        `"a,b"`,
		`"`:          `""""`,
		"line\nfeed": "\"line\nfeed\"",
	}
	for in, want := range cases {
		if got := csvField(in); got != want {
			t.Errorf("csvField(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestFormatRuntimeTimedOut covers the "> limit" rendering with sub-minute
// and fractional limits — the value printed is the limit, not the elapsed.
func TestFormatRuntimeTimedOut(t *testing.T) {
	if got := FormatRuntime(90*time.Second, true, 60*time.Second); got != "> 60" {
		t.Errorf("timed out = %q, want \"> 60\"", got)
	}
	if got := FormatRuntime(time.Second, true, 1500*time.Millisecond); got != "> 2" {
		t.Errorf("fractional limit = %q, want \"> 2\" (rounded)", got)
	}
	if got := FormatRuntime(0, false, 0); got != "0.0" {
		t.Errorf("zero runtime = %q, want \"0.0\"", got)
	}
}
