package telemetry

import (
	"testing"
	"time"
)

func TestComputeSeriesLatencyQuantiles(t *testing.T) {
	var recs []Record
	// 100 pd solves at 1..100us: nearest-rank p50=50, p90=90, p99=99.
	for i := 1; i <= 100; i++ {
		recs = append(recs, reportRec(int64(i), "d", "pd", int64(i)))
	}
	// One ilp solve, and a scenario record the series must ignore.
	recs = append(recs, reportRec(200, "d", "ilp", 5000), scenarioRec(201, "churnchaos", true))

	s, err := ComputeSeries(recs, SeriesOptions{Metric: MetricSolveLatency})
	if err != nil {
		t.Fatal(err)
	}
	if s.Samples != 101 {
		t.Errorf("Samples = %d, want 101 (scenario excluded)", s.Samples)
	}
	pd := s.Latency["pd"]
	if pd == nil || pd.Count != 100 {
		t.Fatalf("pd bucket = %+v", pd)
	}
	if pd.P50US != 50 || pd.P90US != 90 || pd.P99US != 99 || pd.MaxUS != 100 {
		t.Errorf("pd quantiles = %+v, want p50=50 p90=90 p99=99 max=100", pd)
	}
	if ilp := s.Latency["ilp"]; ilp == nil || ilp.P50US != 5000 || ilp.Count != 1 {
		t.Errorf("ilp bucket = %+v", ilp)
	}
	// Only latency was asked for.
	if s.Rates != nil || s.Cache != nil || s.Drift != nil {
		t.Error("unrequested sections populated")
	}
}

func TestComputeSeriesWindow(t *testing.T) {
	now := time.UnixMilli(10_000)
	recs := []Record{
		reportRec(1_000, "d", "pd", 1), // outside a 5s window
		reportRec(6_000, "d", "pd", 2),
		reportRec(9_000, "d", "pd", 3),
	}
	s, err := ComputeSeries(recs, SeriesOptions{Metric: MetricSolveLatency, Window: 5 * time.Second, Now: now})
	if err != nil {
		t.Fatal(err)
	}
	if s.Samples != 2 || s.FromMS != 6_000 || s.ToMS != 9_000 {
		t.Errorf("window filter: samples=%d from=%d to=%d", s.Samples, s.FromMS, s.ToMS)
	}
}

func TestComputeSeriesUnknownMetric(t *testing.T) {
	if _, err := ComputeSeries(nil, SeriesOptions{Metric: "bogus"}); err == nil {
		t.Fatal("unknown metric accepted")
	}
}

func TestComputeSeriesRates(t *testing.T) {
	mk := func(t int64, degraded bool, auditRan bool, viol int64, attempt int) Record {
		r := reportRec(t, "d", "pd", 1)
		r.Report.Degraded = degraded
		r.Report.AuditRan = auditRan
		r.Report.AuditViolations = viol
		r.Report.Attempt = attempt
		return r
	}
	recs := []Record{
		mk(1, false, true, 0, 0),
		mk(2, true, true, 0, 1),
		mk(3, true, true, 2, 2),
		mk(4, false, false, 0, 3),
	}
	s, err := ComputeSeries(recs, SeriesOptions{Metric: MetricRates})
	if err != nil {
		t.Fatal(err)
	}
	r := s.Rates
	if r.Solves != 4 || r.Degraded != 2 || r.DegradedRate != 0.5 {
		t.Errorf("degradation: %+v", r)
	}
	if r.AuditRan != 3 || r.AuditViolated != 1 {
		t.Errorf("audit counts: %+v", r)
	}
	if want := 1.0 / 3.0; r.ViolationRate != want {
		t.Errorf("ViolationRate = %v, want %v", r.ViolationRate, want)
	}
	if r.Retries != 2 {
		t.Errorf("Retries = %d, want 2 (attempts > 1)", r.Retries)
	}
}

func TestComputeSeriesCacheMix(t *testing.T) {
	mk := func(t int64, outcome string) Record {
		r := reportRec(t, "d", "pd", 1)
		r.Report.Cache = outcome
		return r
	}
	recs := []Record{
		mk(1, "hit"), mk(2, "hit"), mk(3, "incremental"),
		mk(4, "cold"), mk(5, "cold-fallback"), mk(6, "bypass"),
		mk(7, ""), // cache off: not part of the mix
	}
	s, err := ComputeSeries(recs, SeriesOptions{Metric: MetricCache})
	if err != nil {
		t.Fatal(err)
	}
	c := s.Cache
	if c.Solves != 6 || c.Hits != 2 || c.Incrementals != 1 || c.Cold != 1 || c.ColdFallbacks != 1 || c.Bypass != 1 {
		t.Errorf("mix = %+v", c)
	}
	if want := 2.0 / 6.0; c.HitRatio != want {
		t.Errorf("HitRatio = %v, want %v", c.HitRatio, want)
	}
	if want := 2.0 / 6.0; c.ColdRatio != want { // cold + cold-fallback
		t.Errorf("ColdRatio = %v, want %v", c.ColdRatio, want)
	}
}

func TestComputeSeriesDrift(t *testing.T) {
	mk := func(t int64, design string, util float64) Record {
		r := reportRec(t, design, "pd", 1)
		r.Report.Congestion = &CongestionSummary{MeanUtilPct: util}
		return r
	}
	recs := []Record{
		mk(1, "a", 10),
		mk(2, "b", 50),
		mk(3, "a", 35), // a drifts +25
		mk(4, "b", 48), // b drifts -2
	}
	s, err := ComputeSeries(recs, SeriesOptions{Metric: MetricCongestionDrift})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Drift) != 4 {
		t.Fatalf("drift points = %d, want 4", len(s.Drift))
	}
	if s.Drift[0].DriftPct != 0 || s.Drift[1].DriftPct != 0 {
		t.Errorf("first point per design must have zero drift: %+v", s.Drift[:2])
	}
	if s.Drift[2].Design != "a" || s.Drift[2].DriftPct != 25 {
		t.Errorf("a's second point = %+v, want drift +25", s.Drift[2])
	}
	if s.Drift[3].Design != "b" || s.Drift[3].DriftPct != -2 {
		t.Errorf("b's second point = %+v, want drift -2", s.Drift[3])
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	if q := quantile(nil, 0.5); q != 0 {
		t.Errorf("empty quantile = %d", q)
	}
	one := []int64{7}
	for _, p := range []float64{0.5, 0.9, 0.99} {
		if q := quantile(one, p); q != 7 {
			t.Errorf("single-element p%v = %d, want 7", p, q)
		}
	}
}
