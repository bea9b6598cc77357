package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/obs"
	"repro/internal/report"
)

// statsFile is the JSON layout of WriteStats: a schema stamp plus the
// per-run telemetry reports, in completion order.
type statsFile struct {
	Schema int       `json:"schema"`
	Runs   []obs.Run `json:"runs"`
}

// WriteStats serializes every collected run as indented JSON (schema
// obs.SchemaVersion). A nil collector writes an empty run list, so the
// output is always valid for downstream tooling.
func WriteStats(w io.Writer, c *obs.Collector) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(statsFile{Schema: obs.SchemaVersion, Runs: c.Runs()})
}

// stageColumns is the fixed column order of StageTable — the pipeline
// stages in execution order.
var stageColumns = []struct {
	name  string
	label string
}{
	{obs.StagePD, "pd"},
	{obs.StageILP, "ilp"},
	{obs.StageHier, "hier"},
	{obs.StageCluster, "clus"},
	{obs.StageRefine, "refine"},
	{obs.StageAudit, "audit"},
	{obs.StageMetrics, "metric"},
}

// fmtStage renders a stage total, "-" when the stage never ran.
func fmtStage(d time.Duration) string {
	if d == 0 {
		return "-"
	}
	return fmt.Sprintf("%.3fs", d.Seconds())
}

// StageTable renders the per-run stage wall-clock table for every
// collected run: one row per (bench, flow) with the total time spent in
// each pipeline stage plus the headline solver counters. A nil or empty
// collector prints nothing.
func StageTable(w io.Writer, c *obs.Collector) {
	runs := c.Runs()
	if len(runs) == 0 {
		return
	}
	headers := []string{"flow"}
	for _, col := range stageColumns {
		headers = append(headers, col.label)
	}
	headers = append(headers, "pd.iters", "bb.nodes", "simplex")
	rows := make([]report.Row, 0, len(runs))
	for _, run := range runs {
		cells := []string{run.Flow}
		for _, col := range stageColumns {
			cells = append(cells, fmtStage(run.Report.SpanTotal(col.name)))
		}
		cells = append(cells,
			fmt.Sprint(run.Report.Counters["pd.iterations"]),
			fmt.Sprint(run.Report.Counters["ilp.bb.nodes"]),
			fmt.Sprint(run.Report.Counters["ilp.simplex.iterations"]),
		)
		rows = append(rows, report.Row{Bench: run.Bench, Cells: cells})
	}
	report.Table(w, "solver stage telemetry (wall-clock per stage; see DESIGN.md \"Observability\")", headers, rows)
}
