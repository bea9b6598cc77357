package scenario

import (
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/route"
	"repro/internal/solvecache"
)

// TestGenerateDeterministic: the reproducibility contract — same scenario
// name + config digests identically, different seeds differ.
func TestGenerateDeterministic(t *testing.T) {
	for _, name := range Names() {
		cfg := Config{Seed: 42, Requests: 30}
		a, err := Generate(name, cfg)
		if err != nil {
			t.Fatalf("Generate(%q): %v", name, err)
		}
		b, _ := Generate(name, cfg)
		if a.Digest() != b.Digest() {
			t.Errorf("scenario %q: same seed produced different digests", name)
		}
		c, _ := Generate(name, Config{Seed: 43, Requests: 30})
		if a.Digest() == c.Digest() {
			t.Errorf("scenario %q: different seeds produced identical digests", name)
		}
		if len(a.Requests) != 30 {
			t.Errorf("scenario %q: got %d requests, want 30", name, len(a.Requests))
		}
	}
}

// TestGenerateUnknown: unknown scenario names error and list what exists.
func TestGenerateUnknown(t *testing.T) {
	if _, err := Generate("nope", Config{Seed: 1}); err == nil {
		t.Fatal("Generate(nope) succeeded")
	}
}

// TestProgramsWellFormed: every generated request carries a valid design,
// a known path, and non-decreasing arrival offsets. A scenario that fires
// invalid designs measures the validator, not the router.
func TestProgramsWellFormed(t *testing.T) {
	for _, name := range Names() {
		p, err := Generate(name, Config{Seed: 7, Requests: 40})
		if err != nil {
			t.Fatalf("Generate(%q): %v", name, err)
		}
		var prev time.Duration
		for i, req := range p.Requests {
			if req.Path != "/route" && req.Path != "/jobs" {
				t.Fatalf("%s req %d: unexpected path %q", name, i, req.Path)
			}
			if req.At < prev {
				t.Fatalf("%s req %d: arrivals not ordered (%v < %v)", name, i, req.At, prev)
			}
			prev = req.At
			if err := req.Design.Validate(); err != nil {
				t.Fatalf("%s req %d (%s): invalid design: %v", name, i, req.Design.Name, err)
			}
		}
		if p.FaultSpec != "" {
			if _, err := faultinject.ParseSpec(p.FaultSpec); err != nil {
				t.Fatalf("%s: fault spec %q does not parse: %v", name, p.FaultSpec, err)
			}
		}
	}
}

// TestChurnDeltaCompatible: consecutive churn designs must either be the
// same design (an exact cache hit) or a mutation that changes the solve
// cache's content key and diffs cleanly through route.DiffDesigns — that
// is the whole point of the churn stream: it exercises the incremental
// path, not the cold path. A move lists exactly the moved group; a
// blockage edit lists none.
func TestChurnDeltaCompatible(t *testing.T) {
	p, err := Generate("churn", Config{Seed: 11, Requests: 50})
	if err != nil {
		t.Fatal(err)
	}
	moves := 0
	for i := 1; i < len(p.Requests); i++ {
		oldD, newD := p.Requests[i-1].Design, p.Requests[i].Design
		if oldD == newD {
			continue // verbatim repeat
		}
		if solvecache.KeyFor(oldD, core.Options{}) == solvecache.KeyFor(newD, core.Options{}) {
			t.Fatalf("churn step %d (%s): mutation kept the cache key", i, newD.Name)
		}
		delta, ok := route.DiffDesigns(oldD, newD)
		if !ok {
			t.Fatalf("churn step %d: designs not delta-compatible", i)
		}
		var want []int
		edit := newD.Name[strings.LastIndex(newD.Name, "-")+1:]
		if g, found := strings.CutPrefix(edit, "mv"); found {
			gi, err := strconv.Atoi(g)
			if err != nil {
				t.Fatalf("churn step %d: bad move label %q", i, edit)
			}
			want = []int{gi}
			moves++
		}
		if !slices.Equal(delta.ChangedGroups, want) {
			t.Fatalf("churn step %d (%s): changed groups %v, want %v", i, edit, delta.ChangedGroups, want)
		}
	}
	if moves == 0 {
		t.Fatal("churn scenario moved no group")
	}
}

// TestMutateStaysValid: a long mutation chain never produces an invalid
// design or changes grid shape / group count.
func TestMutateStaysValid(t *testing.T) {
	p, _ := Generate("churn", Config{Seed: 3, Requests: 2})
	d := p.Requests[0].Design
	r := rand.New(rand.NewSource(99))
	for step := 0; step < 60; step++ {
		next, label := Mutate(r, d)
		if label == "" {
			t.Fatalf("step %d: empty edit label", step)
		}
		if err := next.Validate(); err != nil {
			t.Fatalf("step %d (%s): invalid after mutation: %v", step, label, err)
		}
		if len(next.Groups) != len(d.Groups) {
			t.Fatalf("step %d (%s): group count changed", step, label)
		}
		if next.Grid.W != d.Grid.W || next.Grid.H != d.Grid.H ||
			next.Grid.NumLayers != d.Grid.NumLayers || next.Grid.EdgeCap != d.Grid.EdgeCap {
			t.Fatalf("step %d (%s): grid shape changed", step, label)
		}
		d = next
	}
}

// TestArrivals: both processes produce ordered offsets at roughly the
// requested rate.
func TestArrivals(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	po := PoissonArrivals(r, 400, 100)
	for i := 1; i < len(po); i++ {
		if po[i] < po[i-1] {
			t.Fatal("poisson arrivals not ordered")
		}
	}
	// 400 arrivals at 100/s: expect ~4s total, allow wide slack.
	if total := po[len(po)-1]; total < 2*time.Second || total > 8*time.Second {
		t.Fatalf("poisson span %v, want ~4s", total)
	}
	sq := SquareWaveArrivals(r, 200, 10, 1000, 2*time.Second)
	for i := 1; i < len(sq); i++ {
		if sq[i] < sq[i-1] {
			t.Fatal("square-wave arrivals not ordered")
		}
	}
}

// TestCheckInvariants: each invariant trips on exactly its own violation.
func TestCheckInvariants(t *testing.T) {
	ok2xx := Observation{Status: 200, RetryAfter: -1}
	find := func(rs []InvariantResult, name string) InvariantResult {
		for _, r := range rs {
			if r.Name == name {
				return r
			}
		}
		t.Fatalf("invariant %q missing", name)
		return InvariantResult{}
	}

	rs := CheckInvariants([]Observation{ok2xx, {Status: 429, RetryAfter: 2}}, CheckConfig{})
	if !AllOK(rs) {
		t.Fatalf("clean run failed invariants: %+v", rs)
	}

	rs = CheckInvariants([]Observation{{TransportErr: "connection refused"}}, CheckConfig{})
	if find(rs, "transport-clean").OK {
		t.Error("transport-clean passed with a transport error")
	}

	rs = CheckInvariants([]Observation{{Status: 429, RetryAfter: -1}}, CheckConfig{})
	if find(rs, "shed-retry-after").OK {
		t.Error("shed-retry-after passed with missing header")
	}

	rs = CheckInvariants([]Observation{{Status: 503, ErrMsg: "server is draining", RetryAfter: -1}}, CheckConfig{})
	if find(rs, "drain-retry-after").OK {
		t.Error("drain-retry-after passed with missing header")
	}

	many := []Observation{ok2xx}
	for i := 0; i < 9; i++ {
		many = append(many, Observation{Status: 429, RetryAfter: 1})
	}
	rs = CheckInvariants(many, CheckConfig{MaxShedFrac: 0.5})
	if find(rs, "shed-budget").OK {
		t.Error("shed-budget passed at 90% shed with 50% budget")
	}

	rs = CheckInvariants([]Observation{{Status: 500, ErrMsg: "boom"}}, CheckConfig{FaultsArmed: true})
	if find(rs, "no-uninjected-5xx").OK {
		t.Error("no-uninjected-5xx passed on an unattributed 500")
	}
	rs = CheckInvariants([]Observation{{Status: 500, ErrMsg: "core: all 1 solver rungs failed: pd: faultinject: pd.solve: injected chaos"}}, CheckConfig{FaultsArmed: true})
	if !find(rs, "no-uninjected-5xx").OK {
		t.Error("no-uninjected-5xx tripped on an injected 500")
	}
	rs = CheckInvariants([]Observation{{Status: 500, ErrMsg: "faultinject: x"}}, CheckConfig{FaultsArmed: false})
	if find(rs, "no-uninjected-5xx").OK {
		t.Error("no-uninjected-5xx passed an injected-looking 500 with no faults armed")
	}

	bad := false
	rs = CheckInvariants([]Observation{{Status: 200, AuditOK: &bad, Cache: "incremental"}}, CheckConfig{})
	if find(rs, "audit-legal").OK {
		t.Error("audit-legal passed a dirty audit")
	}

	rs = CheckInvariants([]Observation{{Status: 202, JobID: "j1", JobLost: true}}, CheckConfig{})
	if find(rs, "jobs-complete").OK {
		t.Error("jobs-complete passed a lost job")
	}
	rs = CheckInvariants([]Observation{{Status: 202, JobID: "j1", JobState: "FAILED", JobError: "real bug"}}, CheckConfig{FaultsArmed: true})
	if find(rs, "jobs-complete").OK {
		t.Error("jobs-complete passed an uninjected job failure")
	}
	rs = CheckInvariants([]Observation{{Status: 202, JobID: "j1", JobState: "FAILED", JobError: "faultinject: jobs.run: injected chaos"}}, CheckConfig{FaultsArmed: true})
	if !find(rs, "jobs-complete").OK {
		t.Error("jobs-complete tripped on an injected job failure")
	}
}

// TestSummarize: the report numbers add up.
func TestSummarize(t *testing.T) {
	obs := []Observation{
		{Status: 200, Latency: 10 * time.Millisecond, Cache: "cold"},
		{Status: 200, Latency: 20 * time.Millisecond, Cache: "hit"},
		{Status: 429},
		{Status: 202, JobID: "j1", JobState: "SUCCEEDED", Latency: 5 * time.Millisecond},
		{TransportErr: "refused"},
	}
	s := Summarize(obs)
	if s.Requests != 5 || s.ByStatus["200"] != 2 || s.ByStatus["429"] != 1 || s.ByStatus["transport-error"] != 1 {
		t.Fatalf("bad status counts: %+v", s)
	}
	if s.ShedFrac != 0.2 {
		t.Fatalf("shed frac = %v, want 0.2", s.ShedFrac)
	}
	if s.JobsAccepted != 1 || s.JobsSucceeded != 1 {
		t.Fatalf("bad job counts: %+v", s)
	}
	if s.P50us == 0 || s.P99us < s.P50us {
		t.Fatalf("bad percentiles: %+v", s)
	}
	if s.ByCache["cold"] != 1 || s.ByCache["hit"] != 1 {
		t.Fatalf("bad cache counts: %+v", s)
	}
}
