package telemetry

import (
	"fmt"
	"sort"
	"time"
)

// Series metric names accepted by GET /telemetry/v1/series.
const (
	MetricSolveLatency    = "solve_latency"
	MetricRates           = "rates"
	MetricCache           = "cache"
	MetricCongestionDrift = "congestion_drift"
	MetricAll             = "all"
)

// SeriesOptions selects what ComputeSeries aggregates.
type SeriesOptions struct {
	// Metric is one of the Metric* names ("" means MetricAll).
	Metric string
	// Window restricts records to [Now-Window, Now]; zero means all.
	Window time.Duration
	// Now anchors the window (zero value means time.Now()).
	Now time.Time
}

// LatencySummary is the solve-latency quantile row for one method.
type LatencySummary struct {
	Count int   `json:"count"`
	P50US int64 `json:"p50_us"`
	P90US int64 `json:"p90_us"`
	P99US int64 `json:"p99_us"`
	MaxUS int64 `json:"max_us"`
}

// RateSummary carries the degradation and audit health of the window.
type RateSummary struct {
	// Solves counts report records in the window.
	Solves int `json:"solves"`
	// Degraded counts solves answered by a fallback rung.
	Degraded     int     `json:"degraded"`
	DegradedRate float64 `json:"degraded_rate"`
	// AuditRan counts solves with an independent legality verdict;
	// AuditViolated counts those whose audit found violations.
	AuditRan      int     `json:"audit_ran"`
	AuditViolated int     `json:"audit_violated"`
	ViolationRate float64 `json:"violation_rate"`
	// Attempts counts async-job retry attempts (attempt > 1).
	Retries int `json:"retries"`
}

// CacheSummary carries the solve-cache serving mix of the window.
type CacheSummary struct {
	// Solves counts report records that went through the cache (non-empty
	// outcome label).
	Solves           int     `json:"solves"`
	Hits             int     `json:"hits"`
	Incrementals     int     `json:"incrementals"`
	Cold             int     `json:"cold"`
	ColdFallbacks    int     `json:"cold_fallbacks"`
	Bypass           int     `json:"bypass"`
	HitRatio         float64 `json:"hit_ratio"`
	IncrementalRatio float64 `json:"incremental_ratio"`
	ColdRatio        float64 `json:"cold_ratio"`
}

// DriftPoint is one step of a design's congestion trajectory: the mean
// utilization of the snapshot and its delta against the design's previous
// snapshot in the window.
type DriftPoint struct {
	TimeMS int64  `json:"t_ms"`
	Design string `json:"design,omitempty"`
	// MeanUtilPct is the snapshot's capacity-weighted mean utilization.
	MeanUtilPct   float64 `json:"mean_util_pct"`
	OverflowEdges int     `json:"overflow_edges"`
	// DriftPct is MeanUtilPct minus the previous snapshot's (0 for the
	// first point of a design).
	DriftPct float64 `json:"drift_pct"`
}

// Series is the GET /telemetry/v1/series payload.
type Series struct {
	Metric   string `json:"metric"`
	WindowMS int64  `json:"window_ms,omitempty"`
	FromMS   int64  `json:"from_ms,omitempty"`
	ToMS     int64  `json:"to_ms,omitempty"`
	// Samples counts the report records aggregated.
	Samples int `json:"samples"`
	// Latency maps method name to its quantile row (solve_latency).
	Latency map[string]*LatencySummary `json:"latency,omitempty"`
	Rates   *RateSummary               `json:"rates,omitempty"`
	Cache   *CacheSummary              `json:"cache,omitempty"`
	Drift   []DriftPoint               `json:"drift,omitempty"`
}

// ComputeSeries aggregates the report records into the requested series.
// Unknown metric names error (the HTTP layer maps that to 400).
func ComputeSeries(recs []Record, opt SeriesOptions) (Series, error) {
	metric := opt.Metric
	if metric == "" {
		metric = MetricAll
	}
	switch metric {
	case MetricSolveLatency, MetricRates, MetricCache, MetricCongestionDrift, MetricAll:
	default:
		return Series{}, fmt.Errorf("unknown metric %q (want %s, %s, %s, %s or %s)",
			metric, MetricSolveLatency, MetricRates, MetricCache, MetricCongestionDrift, MetricAll)
	}
	now := opt.Now
	if now.IsZero() {
		now = time.Now()
	}
	out := Series{Metric: metric}
	var fromMS int64
	if opt.Window > 0 {
		out.WindowMS = opt.Window.Milliseconds()
		fromMS = now.Add(-opt.Window).UnixMilli()
	}

	// Collect the in-window report records in time order.
	var reports []Record
	for _, r := range recs {
		if r.Kind != KindReport || r.Report == nil {
			continue
		}
		if fromMS > 0 && r.TimeMS < fromMS {
			continue
		}
		reports = append(reports, r)
	}
	sort.SliceStable(reports, func(i, j int) bool { return reports[i].TimeMS < reports[j].TimeMS })
	out.Samples = len(reports)
	if len(reports) > 0 {
		out.FromMS = reports[0].TimeMS
		out.ToMS = reports[len(reports)-1].TimeMS
	}

	if metric == MetricSolveLatency || metric == MetricAll {
		out.Latency = latencyByMethod(reports)
	}
	if metric == MetricRates || metric == MetricAll {
		out.Rates = rates(reports)
	}
	if metric == MetricCache || metric == MetricAll {
		out.Cache = cacheMix(reports)
	}
	if metric == MetricCongestionDrift || metric == MetricAll {
		out.Drift = drift(reports)
	}
	return out, nil
}

// latencyByMethod buckets solve durations per method and summarizes each
// with nearest-rank quantiles.
func latencyByMethod(reports []Record) map[string]*LatencySummary {
	buckets := make(map[string][]int64)
	for _, r := range reports {
		m := r.Report.Method
		if m == "" {
			m = "unknown"
		}
		buckets[m] = append(buckets[m], r.Report.DurUS)
	}
	if len(buckets) == 0 {
		return nil
	}
	out := make(map[string]*LatencySummary, len(buckets))
	for m, durs := range buckets {
		sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
		out[m] = &LatencySummary{
			Count: len(durs),
			P50US: quantile(durs, 0.50),
			P90US: quantile(durs, 0.90),
			P99US: quantile(durs, 0.99),
			MaxUS: durs[len(durs)-1],
		}
	}
	return out
}

// quantile is the nearest-rank quantile of a sorted slice.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

func rates(reports []Record) *RateSummary {
	rs := &RateSummary{Solves: len(reports)}
	for _, r := range reports {
		sr := r.Report
		if sr.Degraded {
			rs.Degraded++
		}
		if sr.AuditRan {
			rs.AuditRan++
			if sr.AuditViolations > 0 {
				rs.AuditViolated++
			}
		}
		if sr.Attempt > 1 {
			rs.Retries++
		}
	}
	if rs.Solves > 0 {
		rs.DegradedRate = float64(rs.Degraded) / float64(rs.Solves)
	}
	if rs.AuditRan > 0 {
		rs.ViolationRate = float64(rs.AuditViolated) / float64(rs.AuditRan)
	}
	return rs
}

func cacheMix(reports []Record) *CacheSummary {
	cs := &CacheSummary{}
	for _, r := range reports {
		switch r.Report.Cache {
		case "":
			continue
		case "hit":
			cs.Hits++
		case "incremental":
			cs.Incrementals++
		case "cold":
			cs.Cold++
		case "cold-fallback":
			cs.ColdFallbacks++
		case "bypass":
			cs.Bypass++
		}
		cs.Solves++
	}
	if cs.Solves > 0 {
		n := float64(cs.Solves)
		cs.HitRatio = float64(cs.Hits) / n
		cs.IncrementalRatio = float64(cs.Incrementals) / n
		cs.ColdRatio = float64(cs.Cold+cs.ColdFallbacks) / n
	}
	return cs
}

// drift walks each design's congestion snapshots in time order and emits
// the per-step mean-utilization delta — the series that makes a capacity
// or density shift between two solves of the same design visible.
func drift(reports []Record) []DriftPoint {
	last := make(map[string]float64)
	seen := make(map[string]bool)
	var out []DriftPoint
	for _, r := range reports {
		sr := r.Report
		if sr.Congestion == nil {
			continue
		}
		p := DriftPoint{
			TimeMS:        r.TimeMS,
			Design:        sr.Design,
			MeanUtilPct:   sr.Congestion.MeanUtilPct,
			OverflowEdges: sr.Congestion.OverflowEdges,
		}
		if seen[sr.Design] {
			p.DriftPct = p.MeanUtilPct - last[sr.Design]
		}
		seen[sr.Design] = true
		last[sr.Design] = p.MeanUtilPct
		out = append(out, p)
	}
	return out
}
