package solvecache

import (
	"context"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/route"
	"repro/internal/signal"
)

// Outcome labels how a Solve was served.
type Outcome string

const (
	// OutcomeHit is an exact content-hash hit: the cached Result was
	// returned without solving anything.
	OutcomeHit Outcome = "hit"
	// OutcomeIncremental is a miss served by patching a cached base
	// problem with the design delta and re-running selection.
	OutcomeIncremental Outcome = "incremental"
	// OutcomeCold is a full solve: no usable cached base existed.
	OutcomeCold Outcome = "cold"
	// OutcomeColdFallback is a full solve after an incremental attempt was
	// rejected (rebuild/solver failure or an audit violation).
	OutcomeColdFallback Outcome = "cold-fallback"
	// OutcomeBypass is a full solve that never consulted the cache
	// (disabled cache, or options carrying an unfingerprintable custom
	// fallback chain).
	OutcomeBypass Outcome = "bypass"
)

// Solver serves solves through a content-addressed cache. A nil Solver (or
// one with a nil cache) degrades to plain core.RunCtx, so callers can
// thread it unconditionally.
type Solver struct {
	cache *Cache
}

// NewSolver wraps a cache; c may be nil for a pass-through solver.
func NewSolver(c *Cache) *Solver { return &Solver{cache: c} }

// Cache exposes the underlying cache (nil for a pass-through solver).
func (s *Solver) Cache() *Cache {
	if s == nil {
		return nil
	}
	return s.cache
}

// Solve routes the design, consulting the cache first.
//
// Exact hit: the cached Result is returned (shallow-copied, with the
// benchmark label re-pointed at the requesting design's name and the audit
// report attached or stripped per opt.Audit). Near miss: when a cached
// entry shares the design's family and DiffDesigns bridges the two, the
// base problem is rebuilt incrementally — groups whose pins did not move
// keep their candidates — and full deterministic selection re-runs over
// the new capacities; the result must pass the independent legality audit
// before it is returned or cached, otherwise Solve falls back to a cold
// solve. Only clean, complete results (audit-legal, not timed out, not
// degraded) are inserted, so a hit can never replay a transient failure.
//
// Designs passed to Solve must not be mutated afterwards while the
// returned Result is in use (the cache deep-copies what it stores, so the
// cache itself is insulated either way). Counters flow to the obs Recorder
// on ctx under the obs.CounterCache* names.
func (s *Solver) Solve(ctx context.Context, d *signal.Design, opt core.Options) (*core.Result, Outcome, error) {
	if s == nil || s.cache == nil || opt.Fallback.Chain != nil {
		res, err := core.RunCtx(ctx, d, opt)
		return res, OutcomeBypass, err
	}
	rec := obs.FromContext(ctx)
	key := KeyFor(d, opt)
	if e := s.cache.get(key); e != nil {
		rec.Add(obs.CounterCacheHit, 1)
		return adaptHit(e, d, opt), OutcomeHit, nil
	}
	rec.Add(obs.CounterCacheMiss, 1)

	outcome := OutcomeCold
	fam := familyOf(d, opt)
	if base := s.cache.base(fam); base != nil {
		if delta, ok := route.DiffDesigns(base.design, d); ok {
			res, auditReject, err := s.incremental(ctx, base, d, opt, delta, key, fam)
			if err != nil {
				return nil, OutcomeIncremental, err
			}
			if res != nil {
				rec.Add(obs.CounterCacheIncremental, 1)
				return res, OutcomeIncremental, nil
			}
			// Rejected (rebuild/solver failure or an audit violation);
			// fall through to the authoritative cold solve.
			rec.Add(obs.CounterCacheColdFall, 1)
			s.cache.noteColdFallback(auditReject)
			outcome = OutcomeColdFallback
		}
	}

	res, err := core.RunCtx(ctx, d, opt)
	if err != nil {
		return res, outcome, err
	}
	s.cacheResult(ctx, key, fam, d, res)
	return res, outcome, nil
}

// incremental rebuilds base's problem for d from the delta and re-solves.
// A nil result with a nil error means the attempt was abandoned for a cold
// solve (auditReject tells the two abandon reasons apart); a context error
// is returned as-is.
func (s *Solver) incremental(ctx context.Context, base *entry, d *signal.Design, opt core.Options, delta route.Delta, key Key, fam uint64) (res *core.Result, auditReject bool, err error) {
	rec := obs.FromContext(ctx)
	// The rebuilt problem references this copy; it becomes the cache
	// entry's diff base, so it must be decoupled from the caller.
	dc := d.Clone()
	np, rstats, err := base.result.Problem.RebuildCtx(ctx, dc, delta)
	if err != nil {
		if ctx.Err() != nil {
			return nil, false, ctx.Err()
		}
		return nil, false, nil
	}
	rec.Add(obs.CounterCacheKept, int64(rstats.KeptObjects))
	rec.Add(obs.CounterCacheInvalidated, int64(rstats.Regenerated))
	res, err = core.RunProblemCtx(ctx, np, opt)
	if err != nil {
		if ctx.Err() != nil {
			return nil, false, ctx.Err()
		}
		// Solver failure, or a strict-mode audit violation: either way the
		// incremental result is not trusted; the cold solve is
		// authoritative.
		reject := res != nil && res.Audit != nil && !res.Audit.OK()
		if reject {
			rec.Add(obs.CounterCacheAuditReject, 1)
		}
		return nil, reject, nil
	}
	// Mandatory legality gate, independent of the request's audit mode:
	// an incremental result never leaves the cache layer unaudited.
	rep := res.Audit
	if rep == nil {
		r := audit.CheckCtx(ctx, dc, np.Grid, res.Routing)
		rep = &r
	}
	if !rep.OK() {
		rec.Add(obs.CounterCacheAuditReject, 1)
		return nil, true, nil
	}
	s.cache.noteIncremental(rstats.Regenerated)
	if !res.TimedOut && !res.Degraded {
		s.cache.insert(&entry{key: key, family: fam, design: dc, result: res, audit: *rep})
	}
	return res, false, nil
}

// cacheResult audits and inserts a cold result. Timed-out, degraded or
// audit-dirty results are returned to the caller but never cached.
func (s *Solver) cacheResult(ctx context.Context, key Key, fam uint64, d *signal.Design, res *core.Result) {
	if res.TimedOut || res.Degraded {
		return
	}
	rep := res.Audit
	if rep == nil {
		r := audit.CheckCtx(ctx, d, res.Problem.Grid, res.Routing)
		rep = &r
	}
	if !rep.OK() {
		return
	}
	s.cache.insert(&entry{key: key, family: fam, design: d.Clone(), result: res, audit: *rep})
}

// adaptHit shallow-copies the cached result for one request: the benchmark
// label tracks the requesting design's name (names are excluded from the
// content key), and the audit report is attached or stripped to match the
// request's audit mode. Deep state (problem, routing, usage) is shared and
// immutable.
func adaptHit(e *entry, d *signal.Design, opt core.Options) *core.Result {
	res := *e.result
	res.Metrics.Bench = d.Name
	if opt.Audit == core.AuditOff {
		res.Audit = nil
	} else {
		rep := e.audit
		res.Audit = &rep
	}
	return &res
}
