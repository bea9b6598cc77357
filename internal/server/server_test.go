package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/benchgen"
	"repro/internal/faultinject"
	"repro/internal/signal"
)

// testDesign is a small design that routes in a few milliseconds.
func testDesign(t *testing.T) *signal.Design {
	t.Helper()
	return benchgen.Scale(benchgen.Industry(1), 0.04).Generate()
}

// designBody marshals a design into a request body.
func designBody(t *testing.T, d *signal.Design) *bytes.Reader {
	t.Helper()
	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(buf.Bytes())
}

// post sends a POST /route and decodes the response into out (if non-nil).
func post(t *testing.T, ts *httptest.Server, path string, body io.Reader, out any) *http.Response {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("decode %s: %v\nbody: %s", path, err, raw)
		}
	}
	return resp
}

func TestRouteOKAuditClean(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var rr RouteResponse
	resp := post(t, ts, "/route?stats=1", designBody(t, testDesign(t)), &rr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if rr.Solver == "" || rr.Metrics.RoutedGroups == 0 {
		t.Errorf("empty result: %+v", rr)
	}
	if rr.AuditOK == nil || !*rr.AuditOK {
		t.Errorf("audit verdict missing or dirty: %+v", rr.Audit)
	}
	if rr.Stats == nil || len(rr.Stats.Spans) == 0 {
		t.Error("stats requested but missing")
	}
	if st := s.Stats(); st.Served != 1 || st.Failed != 0 {
		t.Errorf("counters = %+v", st)
	}
}

func TestMethodAndAuditOverrides(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()

	var rr RouteResponse
	resp := post(t, ts, "/route?method=ilp&audit=strict", designBody(t, testDesign(t)), &rr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if rr.Solver != "ILP" {
		t.Errorf("solver = %q, want ILP", rr.Solver)
	}

	var er ErrorResponse
	resp = post(t, ts, "/route?method=quantum", designBody(t, testDesign(t)), &er)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(er.Error, "quantum") {
		t.Errorf("bad method: status %d, %+v", resp.StatusCode, er)
	}
}

func TestInvalidDesignRejectedBeforeAdmission(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	d := testDesign(t)
	d.Groups[0].Bits[0].Pins[0].Loc.X = d.Grid.W + 50 // out of bounds
	var er ErrorResponse
	resp := post(t, ts, "/route", designBody(t, d), &er)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	if !strings.Contains(er.Error, d.Groups[0].Name) {
		t.Errorf("error does not name the offending group: %q", er.Error)
	}
	if st := s.Stats(); st.Served != 0 || st.Inflight != 0 {
		t.Errorf("invalid request consumed a slot: %+v", st)
	}

	resp = post(t, ts, "/route", strings.NewReader("{not json"), &er)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: status = %d, want 400", resp.StatusCode)
	}
}

// TestOversizedGridRejectedBeforeAdmission posts a body of under 200 bytes
// whose 2^20×2^20×64 grid would need about 256 TiB of edge capacities: it
// must get a 400 from validation, before it is admitted or any grid is
// allocated, and the daemon must keep answering.
func TestOversizedGridRejectedBeforeAdmission(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"Name":"huge","Grid":{"W":1048576,"H":1048576,"NumLayers":64,"EdgeCap":1},` +
		`"Groups":[{"Name":"g","Bits":[{"Name":"b","Driver":0,"Pins":[{"Loc":{"X":0,"Y":0}},{"Loc":{"X":1048575,"Y":1048575}}]}]}]}`
	var er ErrorResponse
	resp := post(t, ts, "/route", strings.NewReader(body), &er)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(er.Error, "exceeds") {
		t.Fatalf("oversized grid: status %d, %+v; want 400 naming the bound", resp.StatusCode, er)
	}
	if st := s.Stats(); st.Served != 0 || st.Inflight != 0 {
		t.Errorf("oversized grid consumed a slot: %+v", st)
	}
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Errorf("healthz after the oversized request = %d, want 200", hr.StatusCode)
	}
}

// TestPanicIsolation injects a panic into the first request's pipeline and
// asserts the request dies with a 500 while the process — and the very
// next request — keep working.
func TestPanicIsolation(t *testing.T) {
	plan := faultinject.NewPlan().
		Arm(faultinject.RouteBuild, faultinject.Action{Panic: "chaos", Times: 1})
	s := New(Config{BaseContext: faultinject.With(context.Background(), plan)})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var er ErrorResponse
	resp := post(t, ts, "/route", designBody(t, testDesign(t)), &er)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", resp.StatusCode)
	}
	if !strings.Contains(er.Error, "panic") {
		t.Errorf("error does not mention the panic: %q", er.Error)
	}

	var rr RouteResponse
	resp = post(t, ts, "/route", designBody(t, testDesign(t)), &rr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after panic: status = %d, want 200", resp.StatusCode)
	}
	st := s.Stats()
	if st.Panics != 1 || st.Failed != 1 || st.Served != 1 || st.Inflight != 0 {
		t.Errorf("counters = %+v", st)
	}
}

// TestSolveDeadline asserts a stalled solve is cut off by SolveTimeout and
// reported as 504, releasing its slot.
func TestSolveDeadline(t *testing.T) {
	// The budget must beat the injected 30s stall by a wide margin yet
	// leave the clean follow-up request room to finish even under -race.
	plan := faultinject.NewPlan().
		Arm(faultinject.PDSolve, faultinject.Action{Delay: 30 * time.Second, Times: 1})
	s := New(Config{
		SolveTimeout: 2 * time.Second,
		BaseContext:  faultinject.With(context.Background(), plan),
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var er ErrorResponse
	start := time.Now()
	resp := post(t, ts, "/route", designBody(t, testDesign(t)), &er)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (%+v)", resp.StatusCode, er)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Errorf("deadline not enforced: request took %s", el)
	}
	if st := s.Stats(); st.Inflight != 0 {
		t.Errorf("slot leaked: %+v", st)
	}

	// The slot is free again: a clean request succeeds.
	resp = post(t, ts, "/route", designBody(t, testDesign(t)), nil)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("request after timeout: status = %d", resp.StatusCode)
	}
}

// TestBurstShedding is the acceptance scenario: a burst far beyond
// -max-inflight must be shed with 429 + Retry-After while every admitted
// request completes audit-clean — no deadlock, no pile-up.
func TestBurstShedding(t *testing.T) {
	// Every solve stalls ~200ms so the burst genuinely overlaps.
	plan := faultinject.NewPlan().
		Arm(faultinject.PDSolve, faultinject.Action{Delay: 200 * time.Millisecond, Times: 1 << 30})
	s := New(Config{
		MaxInflight:  2,
		QueueDepth:   2,
		QueueWait:    50 * time.Millisecond,
		SolveTimeout: 30 * time.Second,
		BaseContext:  faultinject.With(context.Background(), plan),
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	d := testDesign(t)
	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	body := buf.Bytes()

	const burst = 12
	type outcome struct {
		status     int
		retryAfter string
		auditOK    bool
	}
	results := make([]outcome, burst)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/route", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			raw, _ := io.ReadAll(resp.Body)
			o := outcome{status: resp.StatusCode, retryAfter: resp.Header.Get("Retry-After")}
			if resp.StatusCode == http.StatusOK {
				var rr RouteResponse
				if err := json.Unmarshal(raw, &rr); err != nil {
					t.Errorf("request %d: decode: %v", i, err)
					return
				}
				o.auditOK = rr.AuditOK != nil && *rr.AuditOK
			}
			results[i] = o
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("burst deadlocked")
	}

	var ok, shed int
	for i, o := range results {
		switch o.status {
		case http.StatusOK:
			ok++
			if !o.auditOK {
				t.Errorf("request %d admitted but audit-dirty", i)
			}
		case http.StatusTooManyRequests:
			shed++
			if o.retryAfter == "" {
				t.Errorf("request %d shed without Retry-After", i)
			}
		default:
			t.Errorf("request %d: unexpected status %d", i, o.status)
		}
	}
	// 2 slots + 2 queued admit at least 4; a 12-wide burst against
	// 200ms solves must shed the bulk of the rest.
	if ok < 2 {
		t.Errorf("only %d requests admitted", ok)
	}
	if shed < 4 {
		t.Errorf("only %d requests shed (want most of the burst)", shed)
	}
	st := s.Stats()
	if st.Inflight != 0 || st.Waiting != 0 {
		t.Errorf("burst left admission state dirty: %+v", st)
	}
	if st.Shed != int64(shed) || st.Served != int64(ok) {
		t.Errorf("counters disagree with observed outcomes: %+v (ok=%d shed=%d)", st, ok, shed)
	}
}

// TestDrainGraceful: with no stragglers, Drain returns promptly and new
// requests are refused with 503.
func TestDrainGraceful(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if resp := post(t, ts, "/route", designBody(t, testDesign(t)), nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("warmup: %d", resp.StatusCode)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	var er ErrorResponse
	resp := post(t, ts, "/route", designBody(t, testDesign(t)), &er)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-drain status = %d, want 503", resp.StatusCode)
	}
	if !strings.Contains(er.Error, "draining") {
		t.Errorf("post-drain error = %q", er.Error)
	}
}

// TestDrainCancelsStragglers: a solve stalled past the drain budget is
// hard-canceled; Drain returns the context error and the handler unwinds.
func TestDrainCancelsStragglers(t *testing.T) {
	plan := faultinject.NewPlan().
		Arm(faultinject.PDSolve, faultinject.Action{Delay: 30 * time.Second, Times: 1})
	s := New(Config{
		MaxInflight: 1,
		BaseContext: faultinject.With(context.Background(), plan),
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	straggler := make(chan int, 1)
	go func() {
		resp := post(t, ts, "/route", designBody(t, testDesign(t)), nil)
		straggler <- resp.StatusCode
	}()
	// Wait until the straggler holds its slot.
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Inflight == 0 {
		if time.Now().After(deadline) {
			t.Fatal("straggler never started")
		}
		time.Sleep(2 * time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	err := s.Drain(ctx)
	if err == nil {
		t.Fatal("Drain reported clean despite a straggler")
	}
	if err != context.DeadlineExceeded {
		t.Fatalf("Drain: %v, want context.DeadlineExceeded", err)
	}
	select {
	case status := <-straggler:
		if status == http.StatusOK {
			t.Errorf("canceled straggler returned 200")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("straggler never unwound after hard cancel")
	}
	if st := s.Stats(); st.Inflight != 0 {
		t.Errorf("drain left inflight = %d", st.Inflight)
	}
}

func TestHealthzAndReadyz(t *testing.T) {
	s := New(Config{MaxInflight: 1, QueueDepth: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(path string) (*http.Response, Health) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var h Health
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		return resp, h
	}

	resp, h := get("/healthz")
	if resp.StatusCode != http.StatusOK || h.Status != "ok" {
		t.Errorf("healthz = %d %+v", resp.StatusCode, h)
	}
	if h.MaxInflight != 1 || h.QueueDepth != 1 {
		t.Errorf("healthz does not echo config: %+v", h)
	}
	if resp, _ := get("/readyz"); resp.StatusCode != http.StatusOK {
		t.Errorf("readyz = %d, want 200", resp.StatusCode)
	}

	s.BeginDrain()
	if resp, h := get("/readyz"); resp.StatusCode != http.StatusServiceUnavailable || h.Status != "draining" {
		t.Errorf("draining readyz = %d %+v", resp.StatusCode, h)
	}
	// Liveness stays up through the drain.
	if resp, _ := get("/healthz"); resp.StatusCode != http.StatusOK {
		t.Errorf("draining healthz = %d, want 200", resp.StatusCode)
	}
}

// TestQueueWaitAdmitsWhenSlotFrees: a queued request within QueueWait gets
// the slot once the previous solve finishes — queueing is a wait, not an
// instant rejection.
func TestQueueWaitAdmitsWhenSlotFrees(t *testing.T) {
	plan := faultinject.NewPlan().
		Arm(faultinject.PDSolve, faultinject.Action{Delay: 120 * time.Millisecond, Times: 1})
	s := New(Config{
		MaxInflight: 1,
		QueueDepth:  4,
		QueueWait:   5 * time.Second,
		BaseContext: faultinject.With(context.Background(), plan),
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	codes := make([]int, 2)
	for i := range codes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp := post(t, ts, "/route", designBody(t, testDesign(t)), nil)
			codes[i] = resp.StatusCode
		}(i)
		time.Sleep(20 * time.Millisecond) // deterministic order: slow first
	}
	wg.Wait()
	for i, c := range codes {
		if c != http.StatusOK {
			t.Errorf("request %d = %d, want 200 (queued request must be admitted)", i, c)
		}
	}
}

func ExampleServer() {
	s := New(Config{MaxInflight: 2})
	fmt.Println(s.Stats().Status)
	// Output: ok
}
