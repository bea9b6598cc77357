package server

// This file is streakd's producer side of the telemetry lake: every solve
// — synchronous /route requests and async job attempts alike — merges its
// counters into the process-lifetime aggregate (the /metrics view) and,
// when a lake is configured, pushes a distilled report through the
// non-blocking telemetry client. The push path never blocks a solve: a
// full buffer drops the record and counts the drop.

import (
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/telemetry"
)

// recordSolve folds one finished solve into the observability surfaces.
// res may be nil (the solve failed before producing a result); rec is the
// request's recorder. The lake record's duration is the recorder's "run"
// span; elapsed, the server-side wall clock that also counts body decode
// and admission wait, stands in only when there is no run span — for cache
// hits, the only latency there is (a hit never enters the pipeline).
func (s *Server) recordSolve(rec *obs.Recorder, res *core.Result, elapsed time.Duration, source string) {
	for name, v := range rec.Counters() {
		s.agg.Add(name, v)
	}
	t := s.cfg.Telemetry
	if t == nil {
		return
	}
	rep := rec.Report()
	if rep.Congestion == nil && res != nil && res.Usage != nil {
		// topK 0: the lake keeps histograms, not hotspot lists, and skips
		// the sort.
		rep.Congestion = obs.SnapshotCongestion(res.Usage, 0)
	}
	sr := telemetry.DistillReport(rep)
	if sr.DurUS == 0 {
		sr.DurUS = elapsed.Microseconds()
	}
	if res != nil {
		if sr.Solver == "" {
			sr.Solver = res.SolverUsed
		}
		sr.Degraded = sr.Degraded || res.Degraded
		if res.Audit != nil {
			sr.AuditRan = true
			sr.AuditViolations = int64(len(res.Audit.Violations))
		}
	}
	t.Client().Push(telemetry.NewReportRecord(source, sr))
}
