// Package scenario is Streak's traffic-program engine: it generates
// seeded, deterministic request sequences — not just designs — so the
// serving tier's robustness mechanisms (admission shedding, graceful
// drain, WAL-backed retry, fault injection, incremental ECO re-routing)
// can be exercised together under realistic, hostile traffic.
//
// A Program is a timed list of HTTP requests against streakd: each entry
// says when it fires (an offset from scenario start), where (/route or
// /jobs), and what design it carries. Programs come from three places:
//
//   - Generators: named scenario families built here — ECO churn streams
//     (a base design mutated step by step, replayed against the
//     incremental solve cache), adversarial congestion (blockage mazes,
//     capacity cliffs), degenerate shapes (single-bit groups, very wide
//     buses, pin-dense hotspots), and bursty arrival processes (open-loop
//     Poisson plus square-wave bursts). Same seed, same program — byte
//     for byte, which is what makes a chaos failure reproducible.
//   - Capture: streakd -record-dir keeps a ring of live request bodies
//     on the shared segment log (capture.go, internal/seglog);
//     ProgramFromCapture replays them.
//   - Files: a Program round-trips through JSON.
//
// cmd/streakload fires programs at a running daemon and checks the
// invariant set in invariants.go end to end.
package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/benchgen"
	"repro/internal/faultinject"
	"repro/internal/signal"
)

// Request is one timed request of a traffic program.
type Request struct {
	// At is the offset from scenario start at which the request fires.
	At time.Duration `json:"at"`
	// Path is the endpoint: "/route" (synchronous) or "/jobs" (async).
	Path string `json:"path"`
	// Query is the raw query string appended to the path ("" for none),
	// e.g. "cache=off" for burst requests that must cost a real solve.
	Query string `json:"query,omitempty"`
	// Design is the request body.
	Design *signal.Design `json:"design"`
}

// Program is a complete scenario: a named, seeded request sequence plus
// the fault plan meant to run alongside it.
type Program struct {
	// Name is the scenario family ("churn", "churnchaos", ...).
	Name string `json:"name"`
	// Seed reproduces the program: Generate(name, cfg with Seed) is
	// deterministic.
	Seed int64 `json:"seed"`
	// FaultSpec, when non-empty, is the faultinject spec streakd should be
	// started with for the chaos half of the scenario (the load driver
	// uses it to attribute injected failures). Always parseable by
	// faultinject.ParseSpec.
	FaultSpec string `json:"fault_spec,omitempty"`
	// Requests is the timed sequence, ascending in At.
	Requests []Request `json:"requests"`
}

// Duration returns the offset of the last request.
func (p *Program) Duration() time.Duration {
	if len(p.Requests) == 0 {
		return 0
	}
	return p.Requests[len(p.Requests)-1].At
}

// Digest returns a hex SHA-256 of the program's canonical JSON — the
// reproducibility check: same scenario name + seed + config must yield
// the same digest on every run and every machine.
func (p *Program) Digest() string {
	data, err := json.Marshal(p)
	if err != nil {
		// Program marshals by construction; a failure here is a bug.
		panic(fmt.Sprintf("scenario: marshaling program: %v", err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// Config tunes a scenario generator. The zero value plus a Seed is usable.
type Config struct {
	// Seed drives every random choice. Same seed, same program.
	Seed int64
	// Requests is the total request budget. Default 60.
	Requests int
	// Scale shrinks the Industry base designs, (0,1]. Default 0.06 — big
	// enough to exercise real solves, small enough for a soak run.
	Scale float64
	// Rate is the mean arrival rate in requests/second for the Poisson
	// phases. Default 8.
	Rate float64
	// JobsFrac is the fraction of requests submitted to the async /jobs
	// tier instead of synchronous /route. Default 0.15.
	JobsFrac float64
	// BusWidth is the widest degenerate bus the scenario emits. Default
	// 256; raise to 1000+ for a full-width stress run.
	BusWidth int
}

func (c Config) withDefaults() Config {
	if c.Requests <= 0 {
		c.Requests = 60
	}
	if c.Scale <= 0 || c.Scale > 1 {
		c.Scale = 0.06
	}
	if c.Rate <= 0 {
		c.Rate = 8
	}
	if c.JobsFrac < 0 {
		c.JobsFrac = 0
	}
	if c.JobsFrac == 0 {
		c.JobsFrac = 0.15
	}
	if c.BusWidth <= 0 {
		c.BusWidth = 256
	}
	return c
}

// generators maps scenario family names to builders.
var generators = map[string]func(cfg Config) *Program{
	"churn":      genChurn,
	"congestion": genCongestion,
	"degenerate": genDegenerate,
	"burst":      genBurst,
	"churnchaos": genChurnChaos,
}

// Names lists the scenario families, sorted.
func Names() []string {
	out := make([]string, 0, len(generators))
	for name := range generators {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Generate builds the named scenario program. Same name + cfg always
// yields the identical program (assert with Digest).
func Generate(name string, cfg Config) (*Program, error) {
	g, ok := generators[name]
	if !ok {
		return nil, fmt.Errorf("scenario: unknown scenario %q (have: %v)", name, Names())
	}
	return g(cfg.withDefaults()), nil
}

// pathFor picks /route or /jobs for one request.
func pathFor(r *rand.Rand, cfg Config) string {
	if r.Float64() < cfg.JobsFrac {
		return "/jobs"
	}
	return "/route"
}

// finish stamps arrivals onto the request list and wraps it in a program.
func finish(name string, cfg Config, reqs []Request, arrivals []time.Duration, faultSpec string) *Program {
	for i := range reqs {
		reqs[i].At = arrivals[i]
	}
	return &Program{Name: name, Seed: cfg.Seed, FaultSpec: faultSpec, Requests: reqs}
}

// genChurn is the ECO-churn stream: a scaled Industry base design mutated
// step by step (moved groups, added/removed blockages). Most steps replay
// the freshly mutated design — the incremental-cache path; some repeat
// the previous design verbatim — the exact-hit path.
func genChurn(cfg Config) *Program {
	r := rand.New(rand.NewSource(cfg.Seed))
	base := benchgen.Scale(benchgen.Industry(1), cfg.Scale).Generate()
	cur := base
	reqs := make([]Request, 0, cfg.Requests)
	step := 0
	for i := 0; i < cfg.Requests; i++ {
		if i > 0 && r.Float64() >= 0.25 {
			next, edit := Mutate(r, cur)
			step++
			next.Name = fmt.Sprintf("%s-eco%03d-%s", base.Name, step, edit)
			cur = next
		} // else: repeat cur verbatim — an exact cache hit.
		reqs = append(reqs, Request{Path: pathFor(r, cfg), Design: cur})
	}
	return finish("churn", cfg, reqs, PoissonArrivals(r, cfg.Requests, cfg.Rate), "")
}

// genCongestion alternates adversarial-congestion designs — blockage
// mazes and capacity cliffs — with churn steps that add and remove
// blockages right where capacity is scarce.
func genCongestion(cfg Config) *Program {
	r := rand.New(rand.NewSource(cfg.Seed))
	maze := benchgen.Maze(cfg.Seed, 64, 64, 4)
	cliff := benchgen.CapacityCliff(cfg.Seed, 6)
	cur := cliff
	reqs := make([]Request, 0, cfg.Requests)
	for i := 0; i < cfg.Requests; i++ {
		var d *signal.Design
		switch i % 4 {
		case 0:
			d = maze
		case 1, 3:
			d = cur
		case 2:
			next, edit := Mutate(r, cur)
			next.Name = fmt.Sprintf("%s-eco%03d-%s", cliff.Name, i, edit)
			cur, d = next, next
		}
		reqs = append(reqs, Request{Path: pathFor(r, cfg), Design: d})
	}
	return finish("congestion", cfg, reqs, PoissonArrivals(r, cfg.Requests, cfg.Rate), "")
}

// genDegenerate rotates through the degenerate shapes: single-bit groups,
// a BusWidth-wide bus, pin-dense hotspots and a minimal one-group design.
func genDegenerate(cfg Config) *Program {
	r := rand.New(rand.NewSource(cfg.Seed))
	rotation := []*signal.Design{
		benchgen.SingleBitGroups(cfg.Seed, 24, 48, 48),
		benchgen.WideBus(cfg.Seed, cfg.BusWidth),
		benchgen.PinDense(cfg.Seed, 28),
		benchgen.SingleBitGroups(cfg.Seed+1, 1, 16, 16), // the minimal design
	}
	reqs := make([]Request, 0, cfg.Requests)
	for i := 0; i < cfg.Requests; i++ {
		reqs = append(reqs, Request{Path: pathFor(r, cfg), Design: rotation[i%len(rotation)]})
	}
	return finish("degenerate", cfg, reqs, PoissonArrivals(r, cfg.Requests, cfg.Rate), "")
}

// genBurst slams the admission queue: a small design fired in square-wave
// bursts far above the mean rate, with the solve cache bypassed so every
// request costs a real solve slot. Shedding is the expected behavior; the
// invariants check it stays bounded and well-formed (429 + Retry-After).
func genBurst(cfg Config) *Program {
	r := rand.New(rand.NewSource(cfg.Seed))
	d := benchgen.Scale(benchgen.Industry(1), cfg.Scale/2).Generate()
	reqs := make([]Request, 0, cfg.Requests)
	for i := 0; i < cfg.Requests; i++ {
		reqs = append(reqs, Request{Path: "/route", Query: "cache=off", Design: d})
	}
	arrivals := SquareWaveArrivals(r, cfg.Requests, cfg.Rate/4, cfg.Rate*6, 5*time.Second)
	return finish("burst", cfg, reqs, arrivals, "")
}

// genChurnChaos is the soak scenario: an ECO churn stream interleaved
// with degenerate and maze traffic and cache-off burst pressure, arriving
// in square waves, with a deterministic fault plan armed alongside —
// bounded injected solver errors (exercising fallback/5xx attribution and
// job retries) and delays (exercising queueing and shed).
func genChurnChaos(cfg Config) *Program {
	r := rand.New(rand.NewSource(cfg.Seed))
	base := benchgen.Scale(benchgen.Industry(1), cfg.Scale).Generate()
	maze := benchgen.Maze(cfg.Seed, 64, 64, 4)
	degenerate := []*signal.Design{
		benchgen.SingleBitGroups(cfg.Seed, 24, 48, 48),
		benchgen.WideBus(cfg.Seed, cfg.BusWidth),
		benchgen.PinDense(cfg.Seed, 28),
	}
	cur := base
	step := 0
	reqs := make([]Request, 0, cfg.Requests)
	for i := 0; i < cfg.Requests; i++ {
		roll := r.Float64()
		switch {
		case roll < 0.55: // churn stream
			if i > 0 && r.Float64() >= 0.25 {
				next, edit := Mutate(r, cur)
				step++
				next.Name = fmt.Sprintf("%s-eco%03d-%s", base.Name, step, edit)
				cur = next
			}
			reqs = append(reqs, Request{Path: pathFor(r, cfg), Design: cur})
		case roll < 0.70: // degenerate rotation
			reqs = append(reqs, Request{Path: pathFor(r, cfg), Design: degenerate[i%len(degenerate)]})
		case roll < 0.80: // adversarial congestion
			reqs = append(reqs, Request{Path: pathFor(r, cfg), Design: maze})
		default: // burst pressure: bypass the cache, cost a real slot
			reqs = append(reqs, Request{Path: "/route", Query: "cache=off", Design: cur})
		}
	}
	arrivals := SquareWaveArrivals(r, cfg.Requests, cfg.Rate/2, cfg.Rate*4, 5*time.Second)
	spec, err := faultinject.FormatSpec(chaosSchedule())
	if err != nil {
		panic(fmt.Sprintf("scenario: chaos schedule does not format: %v", err))
	}
	return finish("churnchaos", cfg, reqs, arrivals, spec)
}

// chaosSchedule is the deterministic fault plan co-scheduled with the
// churnchaos scenario. Every action is bounded by #times so the injected
// damage is finite and attributable: solver errors carry the faultinject
// marker into response bodies (letting the driver separate injected 5xx
// from real ones) and delays stretch solves into the admission queue
// without failing them.
func chaosSchedule() []faultinject.SpecEntry {
	return []faultinject.SpecEntry{
		{Point: faultinject.PDSolve, Act: faultinject.Action{Err: "injected chaos", After: 3, Times: 2}},
		{Point: faultinject.HierTile, Act: faultinject.Action{Delay: 50 * time.Millisecond, Times: 3}},
		{Point: faultinject.JobsRun, Act: faultinject.Action{Err: "injected chaos", After: 1, Times: 2}},
		{Point: faultinject.RouteBuild, Act: faultinject.Action{Delay: 20 * time.Millisecond, After: 5, Times: 5}},
	}
}
