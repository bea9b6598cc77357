package obs

import (
	"context"
	"encoding/json"
	"errors"
	"sync"
	"testing"
	"time"
)

// TestNilRecorderSafe is the nil-safety table: every Recorder/Span method
// must be a no-op (not a panic) on a nil receiver, because the entire
// pipeline calls them unconditionally.
func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	cases := []struct {
		name string
		call func()
	}{
		{"StartSpan", func() { r.StartSpan(StageBuild) }},
		{"Span.SetWorkers", func() { r.StartSpan(StagePD).SetWorkers(4) }},
		{"Span.End", func() { r.StartSpan(StagePD).End() }},
		{"Add", func() { r.Add("x", 1) }},
		{"SetLabel", func() { r.SetLabel("k", "v") }},
		{"Counter", func() {
			if got := r.Counter("x"); got != 0 {
				t.Errorf("nil Counter = %d", got)
			}
		}},
		{"Report", func() {
			rep := r.Report()
			if rep.Schema != SchemaVersion {
				t.Errorf("nil Report schema = %d", rep.Schema)
			}
			if len(rep.Spans) != 0 || len(rep.Counters) != 0 {
				t.Error("nil Report not empty")
			}
		}},
		{"WithRecorder", func() {
			ctx := WithRecorder(context.Background(), nil)
			if FromContext(ctx) != nil {
				t.Error("nil recorder attached")
			}
		}},
		{"AnnotateBuildInfo", func() { r.AnnotateBuildInfo() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("panicked: %v", p)
				}
			}()
			tc.call()
		})
	}
}

// TestDoWithoutRecorder pins the disabled path: no recorder means fn runs
// directly with the original context and its error passes through.
func TestDoWithoutRecorder(t *testing.T) {
	sentinel := errors.New("boom")
	ran := false
	err := Do(context.Background(), StageBuild, 2, func(ctx context.Context) error {
		ran = true
		if FromContext(ctx) != nil {
			t.Error("recorder appeared from nowhere")
		}
		return sentinel
	})
	if !ran || !errors.Is(err, sentinel) {
		t.Fatalf("ran=%v err=%v", ran, err)
	}
}

// TestDoRecordsSpan pins the enabled path: the stage appears as a finished
// span with its worker annotation, and the error still passes through.
func TestDoRecordsSpan(t *testing.T) {
	r := NewRecorder()
	ctx := WithRecorder(context.Background(), r)
	sentinel := errors.New("boom")
	err := Do(ctx, StagePD, 3, func(ctx context.Context) error {
		if FromContext(ctx) != r {
			t.Error("recorder not propagated into fn")
		}
		time.Sleep(time.Millisecond)
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
	rep := r.Report()
	if len(rep.Spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(rep.Spans))
	}
	sp := rep.Spans[0]
	if sp.Name != StagePD || sp.Workers != 3 {
		t.Errorf("span = %+v", sp)
	}
	if sp.DurUS <= 0 {
		t.Errorf("span duration %dus, want > 0", sp.DurUS)
	}
	if rep.SpanTotal(StagePD) != time.Duration(sp.DurUS)*time.Microsecond {
		t.Error("SpanTotal disagrees with the span record")
	}
}

// TestReportWhileActive pins live reporting: a Report taken while a span
// runs lists it under Active without corrupting the finished list.
func TestReportWhileActive(t *testing.T) {
	r := NewRecorder()
	sp := r.StartSpan(StageHier)
	sp.SetWorkers(2)
	rep := r.Report()
	if len(rep.Active) != 1 || rep.Active[0].Name != StageHier || rep.Active[0].Workers != 2 {
		t.Fatalf("active = %+v", rep.Active)
	}
	if len(rep.Spans) != 0 {
		t.Fatalf("premature finished span: %+v", rep.Spans)
	}
	sp.End()
	rep = r.Report()
	if len(rep.Active) != 0 || len(rep.Spans) != 1 {
		t.Fatalf("after End: active=%d spans=%d", len(rep.Active), len(rep.Spans))
	}
}

// TestConcurrentRecording hammers one recorder from many goroutines (run
// under -race): spans, counters, labels and mid-flight reports must all be
// safe together.
func TestConcurrentRecording(t *testing.T) {
	r := NewRecorder()
	const workers, iters = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				sp := r.StartSpan(StageILP)
				sp.SetWorkers(w)
				r.Add("ilp.bb.nodes", 1)
				r.SetLabel("solver", "ILP")
				_ = r.Report()
				sp.End()
			}
		}(w)
	}
	wg.Wait()
	rep := r.Report()
	if got := int64(workers * iters); rep.Counters["ilp.bb.nodes"] != got {
		t.Errorf("counter = %d, want %d", rep.Counters["ilp.bb.nodes"], got)
	}
	if len(rep.Spans) != workers*iters {
		t.Errorf("spans = %d, want %d", len(rep.Spans), workers*iters)
	}
	if len(rep.Active) != 0 {
		t.Errorf("leaked active spans: %+v", rep.Active)
	}
}

// TestReportJSONRoundTrip pins the wire format: a report marshals and
// unmarshals without loss.
func TestReportJSONRoundTrip(t *testing.T) {
	r := NewRecorder()
	sp := r.StartSpan(StageBuild)
	sp.SetWorkers(4)
	sp.End()
	r.Add("build.objects", 42)
	r.SetLabel("bench", "Industry3")
	rep := r.Report()

	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Schema != SchemaVersion {
		t.Errorf("schema = %d", back.Schema)
	}
	if len(back.Spans) != 1 || back.Spans[0] != rep.Spans[0] {
		t.Errorf("spans round-trip: %+v vs %+v", back.Spans, rep.Spans)
	}
	if back.Counters["build.objects"] != 42 {
		t.Errorf("counters round-trip: %+v", back.Counters)
	}
	if back.Labels["bench"] != "Industry3" {
		t.Errorf("labels round-trip: %+v", back.Labels)
	}
}

// TestCollector pins the sweep aggregator: each Start hangs a fresh
// recorder on the context, finish collects the tagged report, and a nil
// collector is a pass-through.
func TestCollector(t *testing.T) {
	var nilC *Collector
	ctx, finish := nilC.Start(context.Background(), "b", "pd")
	if FromContext(ctx) != nil {
		t.Error("nil collector attached a recorder")
	}
	finish()
	if runs := nilC.Runs(); runs != nil {
		t.Errorf("nil collector runs = %v", runs)
	}

	c := NewCollector()
	for _, flow := range []string{"pd", "ilp"} {
		ctx, finish := c.Start(context.Background(), "Industry1", flow)
		rec := FromContext(ctx)
		if rec == nil {
			t.Fatal("no recorder attached")
		}
		rec.Add("x", 1)
		finish()
	}
	runs := c.Runs()
	if len(runs) != 2 {
		t.Fatalf("runs = %d, want 2", len(runs))
	}
	if runs[0].Flow != "pd" || runs[1].Flow != "ilp" || runs[0].Bench != "Industry1" {
		t.Errorf("run tags wrong: %+v", runs)
	}
	if runs[1].Report.Counters["x"] != 1 {
		t.Errorf("report not collected: %+v", runs[1].Report)
	}
	if runs[0].Report.Labels["flow"] != "pd" {
		t.Errorf("flow label missing: %+v", runs[0].Report.Labels)
	}
}

// TestDoNestsUnderContextSpan pins automatic stage nesting through Do.
func TestDoNestsUnderContextSpan(t *testing.T) {
	r := NewRecorder()
	ctx := WithRecorder(context.Background(), r)
	root := r.StartSpan("run")
	ctx = WithSpan(ctx, root)
	var sawStage bool
	err := Do(ctx, StageBuild, 0, func(ctx context.Context) error {
		if SpanFromContext(ctx) == nil {
			t.Error("stage span not attached to ctx")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	rep := r.Report()
	for _, s := range rep.Spans {
		if s.Name == StageBuild {
			sawStage = true
			if s.Parent != "run" {
				t.Errorf("stage parent = %q, want run", s.Parent)
			}
		}
	}
	if !sawStage {
		t.Errorf("no %s span recorded: %+v", StageBuild, rep.Spans)
	}
}

// TestBuildInfoLabels sanity-checks the build-info annotation: a go_version
// label always exists (VCS settings depend on how the test binary was
// built).
func TestBuildInfoLabels(t *testing.T) {
	r := NewRecorder()
	r.AnnotateBuildInfo()
	rep := r.Report()
	if rep.Labels["go_version"] == "" {
		t.Errorf("go_version label missing: %+v", rep.Labels)
	}
}
