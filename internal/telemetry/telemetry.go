// Package telemetry is Streak's embedded telemetry lake: a durable home
// for the per-solve observability reports and load-scenario verdicts that
// would otherwise die as stdout or one-shot CI uploads.
//
// It has three tiers:
//
//   - Ingest: streakd mounts POST /telemetry/v1/reports (an obs.Report,
//     schema-versioned) and POST /telemetry/v1/scenarios (a
//     ScenarioReport), and pushes its own solves through a Client with
//     bounded buffering that drops on backpressure — telemetry never
//     blocks a solve.
//   - Store: the segment log the jobs WAL and the capture ring use too
//     (internal/seglog: "<crc32-hex8> <json>\n" lines, fsync'd once per
//     batch, boot-time replay with torn-tail tolerance, size-based
//     rotation, segment-count retention), plus an in-memory working set
//     mirroring the live segments for queries.
//   - Query: GET /telemetry/v1/series aggregates the report series —
//     p50/p90/p99 solve latency by method, fallback-degradation and
//     audit-violation rates, cache hit/incremental/cold ratios, and
//     congestion-histogram drift per design — and GET
//     /telemetry/v1/scenarios lists the stored scenario runs.
//     /debug/telemetry renders the series as a small HTML dashboard.
//
// Records are distilled, not raw: an ingested obs.Report is reduced to the
// fields the query tier aggregates (SolveReport), so the lake stays small
// enough to replay into memory at boot.
package telemetry

import (
	"time"

	"repro/internal/obs"
)

// SchemaVersion stamps every stored record. Bump on an incompatible layout
// change; replay skips records with a newer schema instead of failing.
const SchemaVersion = 1

// Record kinds.
const (
	// KindReport is one solve's distilled observability report.
	KindReport = "report"
	// KindScenario is one load/chaos scenario run's report: the program's
	// identity (name, seed, digest, fault spec), its aggregate latency and
	// shed numbers, and the end-to-end invariant verdicts (cmd/streakload).
	KindScenario = "scenario"
)

// Record is one ingested telemetry envelope — exactly one of Report or
// Scenario is set, per Kind.
type Record struct {
	// Schema is SchemaVersion at append time.
	Schema int `json:"schema"`
	// Kind is KindReport or KindScenario.
	Kind string `json:"kind"`
	// TimeMS is the ingest wall-clock in Unix milliseconds; the query
	// tier's time axis.
	TimeMS int64 `json:"t_ms"`
	// Source names the producer ("streakd", "jobs", "streakload", or
	// whatever a remote pusher sends).
	Source string `json:"source,omitempty"`
	// Commit is the VCS revision of the producing binary when known.
	Commit string `json:"commit,omitempty"`
	// Report is the distilled solve report (Kind == KindReport).
	Report *SolveReport `json:"report,omitempty"`
	// Scenario is the load/chaos run report (Kind == KindScenario).
	Scenario *ScenarioReport `json:"scenario,omitempty"`
}

// SolveReport distills one solve's obs.Report into the fields the query
// tier aggregates.
type SolveReport struct {
	// Design is the routed design's name (the recorder's "bench" label).
	Design string `json:"design,omitempty"`
	// Method is the requested selection method; Solver names the rung that
	// actually produced the assignment.
	Method string `json:"method,omitempty"`
	Solver string `json:"solver,omitempty"`
	// Degraded is true when a fallback rung answered.
	Degraded bool `json:"degraded,omitempty"`
	// Cache labels how the solve was served (solvecache.Outcome: "hit",
	// "incremental", "cold", "cold-fallback", "bypass"; empty = cache off).
	Cache string `json:"cache,omitempty"`
	// Attempt is the async-job attempt number (0 for synchronous solves).
	Attempt int `json:"attempt,omitempty"`
	// AuditRan / AuditViolations carry the independent legality verdict.
	AuditRan        bool  `json:"audit_ran,omitempty"`
	AuditViolations int64 `json:"audit_violations,omitempty"`
	// DurUS is the solve's wall-clock in microseconds (the run span, or
	// the server-measured elapsed time for cache hits that never entered
	// the pipeline).
	DurUS int64 `json:"dur_us"`
	// Counters is the run's full named-counter set.
	Counters map[string]int64 `json:"counters,omitempty"`
	// Congestion summarizes the post-solve usage snapshot.
	Congestion *CongestionSummary `json:"congestion,omitempty"`
}

// CongestionSummary reduces an obs.CongestionSnapshot to the per-layer
// utilization shape the drift series tracks.
type CongestionSummary struct {
	// MeanUtilPct is total used tracks over total capacity, as a
	// percentage, across every layer with capacity.
	MeanUtilPct float64 `json:"mean_util_pct"`
	// OverflowEdges counts overflowed edges across layers.
	OverflowEdges int `json:"overflow_edges"`
	// Layers carries each layer's utilization and histogram.
	Layers []LayerUtil `json:"layers,omitempty"`
}

// LayerUtil is one layer's utilization summary.
type LayerUtil struct {
	Layer int    `json:"layer"`
	Name  string `json:"name,omitempty"`
	// UtilPct is used/cap as a percentage (0 when the layer has no
	// capacity).
	UtilPct float64 `json:"util_pct"`
	// Hist is the obs.HistBuckets-wide utilization histogram.
	Hist []int `json:"hist,omitempty"`
}

// DistillReport reduces a full obs.Report to the stored SolveReport:
// identity from the canonical labels (bench, method, solver, degraded,
// cache, job_attempt), the audit verdict from the audit.* counters, the
// duration from the root "run" span, and the complete counter map.
func DistillReport(rep obs.Report) SolveReport {
	sr := SolveReport{
		Design:   rep.Labels["bench"],
		Method:   rep.Labels["method"],
		Solver:   rep.Labels["solver"],
		Degraded: rep.Labels["degraded"] == "true",
		Cache:    rep.Labels["cache"],
		DurUS:    rep.SpanTotal("run").Microseconds(),
	}
	if a := rep.Labels["job_attempt"]; a != "" {
		for _, c := range a {
			if c < '0' || c > '9' {
				sr.Attempt = 0
				break
			}
			sr.Attempt = sr.Attempt*10 + int(c-'0')
		}
	}
	if len(rep.Counters) > 0 {
		sr.Counters = make(map[string]int64, len(rep.Counters))
		for k, v := range rep.Counters {
			sr.Counters[k] = v
		}
		if rep.Counters[obs.CounterAuditBits] > 0 || rep.Counters[obs.CounterAuditEdges] > 0 {
			sr.AuditRan = true
			sr.AuditViolations = rep.Counters[obs.CounterAuditViolations]
		}
	}
	sr.Congestion = SummarizeCongestion(rep.Congestion)
	return sr
}

// SummarizeCongestion reduces a congestion snapshot to its per-layer
// utilization summary (nil in, nil out).
func SummarizeCongestion(snap *obs.CongestionSnapshot) *CongestionSummary {
	if snap == nil {
		return nil
	}
	cs := &CongestionSummary{Layers: make([]LayerUtil, 0, len(snap.Layers))}
	var used, capTotal int64
	for _, l := range snap.Layers {
		lu := LayerUtil{Layer: l.Layer, Name: l.Name, Hist: append([]int(nil), l.Hist[:]...)}
		if l.Cap > 0 {
			lu.UtilPct = 100 * float64(l.Used) / float64(l.Cap)
		}
		used += l.Used
		capTotal += l.Cap
		cs.OverflowEdges += l.OverflowEdges
		cs.Layers = append(cs.Layers, lu)
	}
	if capTotal > 0 {
		cs.MeanUtilPct = 100 * float64(used) / float64(capTotal)
	}
	return cs
}

// ScenarioReport is one scenario run, distilled for the lake. The field
// shapes mirror internal/scenario's Summary/InvariantResult but are
// declared here so the lake's stored schema does not depend on the
// harness package (remote pushers only need this documented shape).
type ScenarioReport struct {
	// Name and Seed identify the scenario family and its instantiation.
	Name string `json:"name"`
	Seed int64  `json:"seed"`
	// Digest is the program's canonical-JSON SHA-256 — two runs with the
	// same digest fired the identical request sequence.
	Digest string `json:"digest,omitempty"`
	// FaultSpec is the faultinject plan armed alongside the run.
	FaultSpec string `json:"fault_spec,omitempty"`
	// Target is the daemon the scenario was fired at.
	Target string `json:"target,omitempty"`
	// DurationMS is the run's wall clock.
	DurationMS int64 `json:"duration_ms"`
	// Requests, ByStatus, ByCache and ShedFrac aggregate the responses.
	Requests int            `json:"requests"`
	ByStatus map[string]int `json:"by_status,omitempty"`
	ByCache  map[string]int `json:"by_cache,omitempty"`
	ShedFrac float64        `json:"shed_frac"`
	// P50us/P90us/P99us are 2xx latency percentiles in microseconds.
	P50us int64 `json:"p50_us"`
	P90us int64 `json:"p90_us"`
	P99us int64 `json:"p99_us"`
	// Jobs* summarize the async submissions the scenario made.
	JobsAccepted  int `json:"jobs_accepted,omitempty"`
	JobsSucceeded int `json:"jobs_succeeded,omitempty"`
	JobsFailed    int `json:"jobs_failed,omitempty"`
	JobsLost      int `json:"jobs_lost,omitempty"`
	// Invariants carries every checked invariant's verdict; Passed is
	// their conjunction.
	Invariants []ScenarioInvariant `json:"invariants,omitempty"`
	Passed     bool                `json:"passed"`
}

// ScenarioInvariant is one invariant's verdict within a scenario report.
type ScenarioInvariant struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// NewScenarioRecord wraps a scenario report in a stamped envelope.
func NewScenarioRecord(source string, sr ScenarioReport) Record {
	return Record{
		Schema:   SchemaVersion,
		Kind:     KindScenario,
		TimeMS:   time.Now().UnixMilli(),
		Source:   source,
		Commit:   obs.BuildInfoLabels()["vcs_revision"],
		Scenario: &sr,
	}
}

// NewReportRecord wraps a distilled solve report in a stamped envelope:
// schema, kind, ingest time, source, and the producing binary's commit.
func NewReportRecord(source string, sr SolveReport) Record {
	return Record{
		Schema: SchemaVersion,
		Kind:   KindReport,
		TimeMS: time.Now().UnixMilli(),
		Source: source,
		Commit: obs.BuildInfoLabels()["vcs_revision"],
		Report: &sr,
	}
}
