// Package report renders paper-style result tables (Tables I and II),
// ASCII congestion heatmaps (Figs. 11 and 12), and CSV series for the
// scalability and ablation figures (Figs. 13-15).
package report

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/grid"
)

// FormatRuntime renders a runtime like the paper's CPU column: seconds
// with one decimal, or "> limit" when the solver hit its time limit.
func FormatRuntime(d time.Duration, timedOut bool, limit time.Duration) string {
	if timedOut {
		return fmt.Sprintf("> %.0f", limit.Seconds())
	}
	return fmt.Sprintf("%.1f", d.Seconds())
}

// Row is one benchmark line of a comparison table.
type Row struct {
	// Bench is the benchmark name.
	Bench string
	// Cells are the pre-formatted cell values.
	Cells []string
}

// Table renders an aligned ASCII table with the given headers and rows.
func Table(w io.Writer, title string, headers []string, rows []Row) {
	fmt.Fprintf(w, "%s\n", title)
	widths := make([]int, len(headers)+1)
	widths[0] = len("Bench")
	for _, r := range rows {
		if len(r.Bench) > widths[0] {
			widths[0] = len(r.Bench)
		}
		for i, c := range r.Cells {
			if i+1 < len(widths) && len(c) > widths[i+1] {
				widths[i+1] = len(c)
			}
		}
	}
	for i, h := range headers {
		if len(h) > widths[i+1] {
			widths[i+1] = len(h)
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintf(w, "| %s |\n", strings.Join(parts, " | "))
	}
	line(append([]string{"Bench"}, headers...))
	sep := make([]string, len(headers)+1)
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range rows {
		line(append([]string{r.Bench}, r.Cells...))
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Heatmap renders the cell-congestion map as ASCII art: ' ' empty, '.' to
// '#' increasing utilization, '@' overflow — the textual analogue of the
// paper's Figs. 11 and 12. Large grids are downsampled to at most maxDim
// rows/columns (taking the max congestion per block).
func Heatmap(w io.Writer, u *grid.Usage, maxDim int) {
	m := u.CellCongestion()
	h, wid := len(m), len(m[0])
	stepY, stepX := (h+maxDim-1)/maxDim, (wid+maxDim-1)/maxDim
	if stepY < 1 {
		stepY = 1
	}
	if stepX < 1 {
		stepX = 1
	}
	for y := 0; y < h; y += stepY {
		var sb strings.Builder
		for x := 0; x < wid; x += stepX {
			peak := 0
			for yy := y; yy < y+stepY && yy < h; yy++ {
				for xx := x; xx < x+stepX && xx < wid; xx++ {
					if m[yy][xx] > peak {
						peak = m[yy][xx]
					}
				}
			}
			sb.WriteByte(congChar(peak))
		}
		fmt.Fprintln(w, sb.String())
	}
	fmt.Fprintf(w, "legend: ' '<20%% '.'<50%% ':'<80%% '+'<100%% '#'=100%% '@'overflow; overflow edges: %d, total overflow: %d\n",
		u.OverflowEdges(), u.Overflow())
}

func congChar(perMille int) byte {
	switch {
	case perMille > 1000:
		return '@'
	case perMille == 1000:
		return '#'
	case perMille >= 800:
		return '+'
	case perMille >= 500:
		return ':'
	case perMille >= 200:
		return '.'
	default:
		return ' '
	}
}

// CSV writes a simple CSV series (header plus rows) for the figure data.
// Fields containing commas, quotes or newlines are quoted RFC 4180 style
// (embedded quotes doubled), so bench names and labels survive round-trips
// through spreadsheet tooling.
func CSV(w io.Writer, header []string, rows [][]string) {
	fmt.Fprintln(w, joinCSV(header))
	for _, r := range rows {
		fmt.Fprintln(w, joinCSV(r))
	}
}

func joinCSV(fields []string) string {
	quoted := make([]string, len(fields))
	for i, f := range fields {
		quoted[i] = csvField(f)
	}
	return strings.Join(quoted, ",")
}

// csvField quotes one CSV field when it needs it.
func csvField(s string) string {
	if !strings.ContainsAny(s, ",\"\n\r") {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}
