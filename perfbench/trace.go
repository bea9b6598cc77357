package main

// The traced run replays the requests an HTTP pass served through an
// in-process replica of the handler's path, calling each layer's public
// function from here and timing the call. Spans are recorded at those
// calls only, never inside the program, so the replica's layer times are
// self times: no timed call nests inside another.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"time"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/hier"
	"repro/internal/jobs"
	rmetrics "repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/pd"
	"repro/internal/postopt"
	"repro/internal/route"
	"repro/internal/scenario"
	"repro/internal/server"
	"repro/internal/signal"
	"repro/internal/solvecache"
	"repro/internal/telemetry"
)

// Timed layers, in report order. Each reports <name>_ms (mean self time
// per replayed request) and <name>_alloc_kb (mean heap allocation per
// replayed request).
var requestLayers = []string{
	"signal.decode", "solvecache.key", "route.diff", "route.rebuild", "route.build",
	"pd.solve", "exact.solve", "hier.solve", "postopt.cluster", "postopt.refine",
	"metrics.compute", "audit.check", "server.encode",
	"jobs.append", "telemetry.append", "scenario.capture",
}

// Boot-time layers, timed once per traced run on a copy of the state the
// earlier daemon life left: <name>_ms is the whole replay.
var bootLayers = []string{"jobs.replay", "telemetry.replay"}

// Counters, each the mean per replayed request unless named _frac.
var counterNames = []string{
	"route.objects", "route.candidates", "pd.iterations", "pd.routed_frac",
	"postopt.cluster.bits_routed", "postopt.refine.pins_fixed",
	"exact.vars", "ilp.bb.nodes", "ilp.simplex.iterations", "ilp.lp.warm_frac",
	"hier.tiles.solved", "hier.tiles.timedout", "route.kept_frac",
	"cache.hit_frac", "cache.incremental_frac", "cache.cold_fallback_frac",
	"audit.violations",
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocated is the process's cumulative heap allocation in bytes.
func heapAllocated() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// clock accumulates self time and allocation per layer plus raw counts.
type clock struct {
	dur   map[string]time.Duration
	alloc map[string]uint64
	count map[string]float64
}

func newClock() *clock {
	return &clock{dur: map[string]time.Duration{}, alloc: map[string]uint64{}, count: map[string]float64{}}
}

// time runs f as one call into layer.
func (c *clock) time(layer string, f func()) {
	a0 := heapAllocated()
	t0 := time.Now()
	f()
	c.dur[layer] += time.Since(t0)
	c.alloc[layer] += heapAllocated() - a0
}

// replica is the handler path rebuilt from public calls: decode, capture,
// the solve cache's lookup and incremental re-route, the flow's stages,
// encode, and the job and telemetry logs. It keeps its own cache state —
// the keys served so far and the most recent cached design as the delta
// base — which mirrors the server's for streams that only ever repeat the
// previous design.
type replica struct {
	w       *workload
	clk     *clock
	seen    map[solvecache.Key]rmetrics.Metrics
	baseD   *signal.Design
	baseP   *route.Problem
	baseSn  func() *obs.CongestionSnapshot
	wal     *jobs.WAL
	store   *telemetry.Store
	capture *scenario.Capture
	pending []telemetry.Record
}

// outcome is what the replica produced for one request.
type outcome struct {
	metrics rmetrics.Metrics
	cache   string
	solver  string
	ok      bool // audit-legal, not timed out
}

func newReplica(w *workload, dir string) (*replica, error) {
	rp := &replica{w: w, clk: newClock(), seen: map[solvecache.Key]rmetrics.Metrics{}}
	if !w.durable {
		return rp, nil
	}
	var err error
	if rp.wal, err = jobs.OpenWAL(filepath.Join(dir, jobsDir), logf); err != nil {
		return nil, err
	}
	if rp.store, err = telemetry.OpenStore(telemetry.StoreConfig{Dir: filepath.Join(dir, telemDir), Logf: logf}); err != nil {
		return nil, err
	}
	if rp.capture, err = scenario.OpenCapture(filepath.Join(dir, captureDir), 4096<<10, 8); err != nil {
		return nil, err
	}
	return rp, nil
}

func (rp *replica) close() error {
	if !rp.w.durable {
		return nil
	}
	err := rp.flushTelemetry()
	for _, c := range []interface{ Close() error }{rp.wal, rp.store, rp.capture} {
		if cerr := c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// serve replays one request along the handler's path.
func (rp *replica) serve(ctx context.Context, r *request) (outcome, error) {
	var d *signal.Design
	var err error
	rp.clk.time("signal.decode", func() { d, err = signal.ReadJSON(bytes.NewReader(r.body)) })
	if err != nil {
		return outcome{}, err
	}
	if rp.capture != nil {
		rp.clk.time("scenario.capture", func() {
			var body []byte
			if body, err = json.Marshal(d); err == nil {
				err = rp.capture.Record(r.path, r.query, body)
			}
		})
		if err != nil {
			return outcome{}, err
		}
	}
	opt := rp.w.optionsFor(r)
	var out outcome
	var usageSnap func() *obs.CongestionSnapshot
	if r.expect == "" {
		out, usageSnap, _, err = rp.build(ctx, d, opt)
	} else {
		out, usageSnap, err = rp.cached(ctx, d, opt)
	}
	if err != nil {
		return outcome{}, err
	}

	resp := server.RouteResponse{Design: d.Name, Solver: out.solver, Metrics: out.metrics, AuditOK: &out.ok, Cache: out.cache}
	var body []byte
	rp.clk.time("server.encode", func() {
		if r.path == "/jobs" {
			body, err = json.Marshal(resp)
			return
		}
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		err = enc.Encode(resp)
		body = buf.Bytes()
	})
	if err != nil {
		return outcome{}, err
	}
	if rp.wal != nil && r.path == "/jobs" {
		rp.clk.time("jobs.append", func() { err = rp.appendJob(ctx, d, body) })
		if err != nil {
			return outcome{}, err
		}
	}
	if rp.store != nil {
		rp.clk.time("telemetry.append", func() { err = rp.recordTelemetry(d.Name, opt, out, usageSnap) })
		if err != nil {
			return outcome{}, err
		}
	}
	return out, nil
}

// appendJob journals the three transitions a successful job writes:
// submit (with the design), running, and succeeded (with the result).
func (rp *replica) appendJob(ctx context.Context, d *signal.Design, result []byte) error {
	raw, err := json.Marshal(d)
	if err != nil {
		return err
	}
	id := fmt.Sprintf("replica-%d", time.Now().UnixNano())
	now := time.Now()
	for _, rec := range []jobs.Record{
		{JobID: id, State: jobs.Pending, Time: now, Spec: &jobs.Spec{Design: raw}},
		{JobID: id, State: jobs.Running, Time: now, Attempt: 1},
		{JobID: id, State: jobs.Succeeded, Time: now, Attempt: 1, Result: result},
	} {
		if err := rp.wal.Append(ctx, rec); err != nil {
			return err
		}
	}
	return nil
}

// recordTelemetry distills the solve as the server does and appends in the
// telemetry client's batches of 64.
func (rp *replica) recordTelemetry(name string, opt core.Options, out outcome, snap func() *obs.CongestionSnapshot) error {
	sr := telemetry.SolveReport{Design: name, Method: opt.Method.String(), Solver: out.solver, Cache: out.cache, AuditRan: true}
	sr.Congestion = telemetry.SummarizeCongestion(snap())
	rp.pending = append(rp.pending, telemetry.NewReportRecord("streakd", sr))
	if len(rp.pending) < 64 {
		return nil
	}
	return rp.flushTelemetry()
}

func (rp *replica) flushTelemetry() error {
	if len(rp.pending) == 0 {
		return nil
	}
	err := rp.store.Append(rp.pending)
	rp.pending = rp.pending[:0]
	return err
}

// cached is solvecache.Solver.Solve rebuilt from public calls: exact hit,
// incremental re-route from the delta base, or a cold build.
func (rp *replica) cached(ctx context.Context, d *signal.Design, opt core.Options) (outcome, func() *obs.CongestionSnapshot, error) {
	var key solvecache.Key
	rp.clk.time("solvecache.key", func() { key = solvecache.KeyFor(d, opt) })
	if m, ok := rp.seen[key]; ok {
		rp.clk.count["cache.hits"]++
		m.Bench = d.Name
		// The streams repeat only the previous design, so a hit is always
		// the delta base.
		return outcome{metrics: m, cache: "hit", solver: opt.Method.String(), ok: true}, rp.baseSn, nil
	}
	cache := "cold"
	if rp.baseD != nil {
		var delta route.Delta
		var ok bool
		rp.clk.time("route.diff", func() { delta, ok = route.DiffDesigns(rp.baseD, d) })
		if ok {
			var np *route.Problem
			var st route.RebuildStats
			var err error
			rp.clk.time("route.rebuild", func() { np, st, err = rp.baseP.RebuildCtx(ctx, d, delta) })
			if err == nil {
				rp.clk.count["rebuild.kept"] += float64(st.KeptObjects)
				rp.clk.count["rebuild.objects"] += float64(st.KeptObjects + st.Regenerated)
				out, snap, err := rp.solve(ctx, np, opt)
				if err != nil {
					return outcome{}, nil, err
				}
				if out.ok {
					out.cache = "incremental"
					rp.clk.count["cache.incrementals"]++
					rp.remember(key, d, np, out, snap)
					return out, snap, nil
				}
			}
			cache = "cold-fallback"
			rp.clk.count["cache.cold_fallbacks"]++
		}
	}
	out, snap, p, err := rp.build(ctx, d, opt)
	if err != nil {
		return outcome{}, nil, err
	}
	out.cache = cache
	rp.remember(key, d, p, out, snap)
	return out, snap, nil
}

// remember caches a clean result, as the solve cache inserts only
// audit-legal, complete results.
func (rp *replica) remember(key solvecache.Key, d *signal.Design, p *route.Problem, out outcome, snap func() *obs.CongestionSnapshot) {
	if out.ok {
		rp.seen[key] = out.metrics
		rp.baseD, rp.baseP, rp.baseSn = d, p, snap
	}
}

func (rp *replica) build(ctx context.Context, d *signal.Design, opt core.Options) (outcome, func() *obs.CongestionSnapshot, *route.Problem, error) {
	var p *route.Problem
	var err error
	rp.clk.time("route.build", func() { p, err = route.BuildCtx(ctx, d, opt.Route) })
	if err != nil {
		return outcome{}, nil, nil, err
	}
	rp.clk.count["route.objects"] += float64(len(p.Objects))
	for _, c := range p.Cands {
		rp.clk.count["route.candidates"] += float64(len(c))
	}
	out, snap, err := rp.solve(ctx, p, opt)
	return out, snap, p, err
}

// solve is core.RunProblemCtx's first rung plus post-optimization,
// metrics and audit, each stage called and timed here.
func (rp *replica) solve(ctx context.Context, p *route.Problem, opt core.Options) (outcome, func() *obs.CongestionSnapshot, error) {
	c := rp.clk
	var a route.Assignment
	var err error
	timedOut := false
	switch opt.Method {
	case core.ILP:
		ictx, cancel := context.WithTimeout(ctx, opt.ILPTimeLimit)
		defer cancel()
		warm := rp.pd(ictx, p)
		// The recorder collects the B&B counters exact.SolveCtx emits.
		rec := obs.NewRecorder()
		var r exact.Result
		c.time("exact.solve", func() {
			r, err = exact.SolveCtx(obs.WithRecorder(ictx, rec), p, exact.Options{MaxVars: opt.ILPMaxVars, WarmStart: &warm})
		})
		if err != nil {
			return outcome{}, nil, fmt.Errorf("exact: %w", err)
		}
		a, timedOut = r.Assignment, r.TimedOut
		for _, n := range []string{obs.CounterExactVars, obs.CounterILPBBNodes, obs.CounterILPSimplexIters, obs.CounterILPLPWarm, obs.CounterILPLPCold} {
			c.count[n] += float64(rec.Counter(n))
		}
	case core.Hierarchical:
		var r hier.Result
		c.time("hier.solve", func() {
			r, err = hier.SolveCtx(ctx, p, hier.Options{Tiles: opt.HierTiles, TimePerTile: opt.HierTimePerTile, Workers: opt.HierWorkers})
		})
		if err != nil {
			return outcome{}, nil, fmt.Errorf("hier: %w", err)
		}
		a, timedOut = r.Assignment, r.TilesTimedOut > 0
		c.count["hier.tiles.solved"] += float64(r.TilesSolved)
		c.count["hier.tiles.timedout"] += float64(r.TilesTimedOut)
	default:
		a = rp.pd(ctx, p)
	}

	routing := p.ExtractRouting(a)
	usage := routing.UsageOf(p.Grid)
	if opt.PostOpt {
		if opt.Clustering {
			var st postopt.ClusterStats
			c.time("postopt.cluster", func() { st, err = postopt.ClusterAndRouteCtx(ctx, p, routing, usage, opt.Post) })
			if err != nil {
				return outcome{}, nil, err
			}
			c.count["postopt.cluster.bits_routed"] += float64(st.BitsRouted)
		}
		if opt.Refinement {
			var st postopt.RefineStats
			c.time("postopt.refine", func() { st, err = postopt.RefineCtx(ctx, p, routing, usage, opt.Post) })
			if err != nil {
				return outcome{}, nil, err
			}
			c.count["postopt.refine.pins_fixed"] += float64(st.PinsFixed)
		}
	}
	var m rmetrics.Metrics
	c.time("metrics.compute", func() { m = rmetrics.Compute(p.Design, routing, usage, opt.Post) })
	var rep audit.Report
	c.time("audit.check", func() { rep = audit.CheckCtx(ctx, p.Design, p.Grid, routing) })
	c.count["audit.violations"] += float64(len(rep.Violations))
	snap := func() *obs.CongestionSnapshot { return obs.SnapshotCongestion(usage, 0) }
	return outcome{metrics: m, solver: opt.Method.String(), ok: rep.OK() && !timedOut}, snap, nil
}

// pd runs the primal-dual solve (a deadline keeps its partial assignment,
// as the flow does).
func (rp *replica) pd(ctx context.Context, p *route.Problem) route.Assignment {
	var r pd.Result
	rp.clk.time("pd.solve", func() { r, _ = pd.SolveCtx(ctx, p) })
	rp.clk.count["pd.iterations"] += float64(r.Iterations)
	rp.clk.count["pd.routed"] += float64(r.Assignment.RoutedObjects())
	rp.clk.count["pd.objects"] += float64(len(p.Objects))
	return r.Assignment
}

// timeBoot measures the boot-time replays on a copy of the state the
// earlier daemon life left in stateDir.
func timeBoot(c *clock, stateDir, scratch string) error {
	if err := copyTree(stateDir, scratch); err != nil {
		return err
	}
	var err error
	c.time("jobs.replay", func() {
		var wal *jobs.WAL
		if wal, err = jobs.OpenWAL(filepath.Join(scratch, jobsDir), logf); err != nil {
			return
		}
		defer wal.Close()
		_, err = wal.Replay(context.Background(), func(jobs.Record) error { return nil })
	})
	if err != nil {
		return err
	}
	c.time("telemetry.replay", func() {
		var st *telemetry.Store
		if st, err = telemetry.OpenStore(telemetry.StoreConfig{Dir: filepath.Join(scratch, telemDir), Logf: logf}); err == nil {
			err = st.Close()
		}
	})
	return err
}

// layerMetrics turns a traced replay of n requests into the per-layer
// metric set. untracedMS is the HTTP pass's mean latency over the same
// requests; server.overhead_ms is what the timed layers do not account
// for (HTTP, admission, handler glue).
func layerMetrics(c *clock, n int, untracedMS float64) map[string]float64 {
	out := map[string]float64{}
	per := func(x float64) float64 { return x / float64(n) }
	var layersMS float64
	for _, l := range requestLayers {
		ms := per(float64(c.dur[l].Nanoseconds()) / 1e6)
		out[l+"_ms"] = ms
		out[l+"_alloc_kb"] = per(float64(c.alloc[l]) / 1024)
		layersMS += ms
	}
	for _, l := range bootLayers {
		out[l+"_ms"] = float64(c.dur[l].Nanoseconds()) / 1e6
		out[l+"_alloc_kb"] = float64(c.alloc[l]) / 1024
	}
	for _, name := range counterNames {
		switch name {
		case "pd.routed_frac":
			out[name] = ratio(c.count["pd.routed"], c.count["pd.objects"])
		case "ilp.lp.warm_frac":
			out[name] = ratio(c.count[obs.CounterILPLPWarm], c.count[obs.CounterILPLPWarm]+c.count[obs.CounterILPLPCold])
		case "route.kept_frac":
			out[name] = ratio(c.count["rebuild.kept"], c.count["rebuild.objects"])
		case "cache.hit_frac":
			out[name] = per(c.count["cache.hits"])
		case "cache.incremental_frac":
			out[name] = per(c.count["cache.incrementals"])
		case "cache.cold_fallback_frac":
			out[name] = per(c.count["cache.cold_fallbacks"])
		default:
			out[name] = per(c.count[name])
		}
	}
	out["server.overhead_ms"] = untracedMS - layersMS
	return out
}

// copyTree copies the regular files under src to dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if e.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
