package obs

import "sort"

// Canonical counter names. Every counter a pipeline stage emits is declared
// here — emitting packages reference these constants instead of repeating
// free-form strings, so a typo'd name is a compile error instead of a
// silently diverging metric, and downstream consumers (stats JSON, the
// telemetry lake, the Prometheus endpoint) can enumerate the full set.
// Names are dot-separated "<area>.<thing>[.<detail>]"; adding one here must
// be paired with adding it to knownCounters below (the registry test pins
// that a full Industry solve emits only registered names).
const (
	// Problem construction (internal/route).
	CounterBuildObjects        = "build.objects"
	CounterBuildCandidates     = "build.candidates"
	CounterBuildArenaPoolGets  = "build.arena.pool.gets"
	CounterBuildArenaPoolFresh = "build.arena.pool.fresh"
	CounterKernelPairsEager    = "kernel.pairs.eager"

	// Primal-dual selection (internal/pd).
	CounterPDIterations     = "pd.iterations"
	CounterPDRouted         = "pd.routed"
	CounterPDPruneChecked   = "pd.prune.checked"
	CounterPDPruneSurvivors = "pd.prune.survivors"
	CounterPDUsagePoolGets  = "pd.usage.pool.gets"
	CounterPDUsagePoolFresh = "pd.usage.pool.fresh"

	// Exact model construction (internal/exact).
	CounterExactVars = "exact.vars"
	CounterExactCons = "exact.cons"

	// ILP branch and bound (internal/ilp).
	CounterILPSolves       = "ilp.solves"
	CounterILPBBNodes      = "ilp.bb.nodes"
	CounterILPBBPruned     = "ilp.bb.pruned"
	CounterILPSimplexIters = "ilp.simplex.iterations"
	CounterILPLazyActive   = "ilp.lazy.activated"
	// CounterILPLPWarm is no longer emitted: every LP relaxation solves
	// from the all-slack basis and counts under CounterILPLPCold. The name
	// stays registered for readers that still compute a warm fraction.
	CounterILPLPWarm       = "ilp.lp.warm"
	CounterILPLPCold       = "ilp.lp.cold"
	CounterILPScratchGets  = "ilp.scratch.gets"
	CounterILPScratchFresh = "ilp.scratch.fresh"

	// Hierarchical selection (internal/hier).
	CounterHierTilesSolved    = "hier.tiles.solved"
	CounterHierTilesTimedOut  = "hier.tiles.timedout"
	CounterHierGreedyRouted   = "hier.greedy.routed"
	CounterHierUsagePoolGets  = "hier.usage.pool.gets"
	CounterHierUsagePoolFresh = "hier.usage.pool.fresh"

	// Post-optimization (internal/postopt).
	CounterClusterBitsRouted = "postopt.cluster.bits_routed"
	CounterClusterBitsLeft   = "postopt.cluster.bits_left"
	CounterClusterClusters   = "postopt.cluster.clusters"
	CounterRefinePinsFixed   = "postopt.refine.pins_fixed"
	CounterRefinePinsLeft    = "postopt.refine.pins_left"
	CounterRefineAddedWL     = "postopt.refine.added_wl"

	// Legality audit (internal/audit).
	CounterAuditViolations = "audit.violations"
	CounterAuditBits       = "audit.bits"
	CounterAuditEdges      = "audit.edges"

	// Flow orchestration (internal/core).
	CounterFallbackAttempts = "core.fallback.attempts"

	// Async job tier (internal/jobs).
	CounterJobsReplayRecords = "jobs.replay.records"
	CounterJobsReplaySkipped = "jobs.replay.skipped"
	CounterJobsRecovered     = "jobs.recovered"
	CounterJobsSubmitted     = "jobs.submitted"
	CounterJobsDedup         = "jobs.dedup"
	CounterJobsStarted       = "jobs.started"
	CounterJobsRetries       = "jobs.retries"
	CounterJobsSucceeded     = "jobs.succeeded"
	CounterJobsFailed        = "jobs.failed"
	CounterJobsCanceled      = "jobs.canceled"
	CounterJobsInterrupted   = "jobs.interrupted"
	CounterJobsAppendErrors  = "jobs.store.append.errors"
)

// Canonical solve-cache counter names (recorded by internal/solvecache):
// exact content-hash hits and misses, misses served by incremental
// re-routing, per-rebuild object splits (cache.objects.invalidated counts
// the objects of changed groups, the only ones a rebuild regenerates;
// cache.objects.kept the rest), incremental attempts abandoned for a cold
// solve, and incremental results the legality audit rejected.
const (
	CounterCacheHit         = "cache.hit"
	CounterCacheMiss        = "cache.miss"
	CounterCacheIncremental = "cache.incremental"
	CounterCacheInvalidated = "cache.objects.invalidated"
	CounterCacheKept        = "cache.objects.kept"
	CounterCacheColdFall    = "cache.fallback.cold"
	CounterCacheAuditReject = "cache.audit.reject"
)

// knownCounters is the registry: every canonical name above, as a set.
var knownCounters = func() map[string]struct{} {
	names := []string{
		CounterBuildObjects, CounterBuildCandidates,
		CounterBuildArenaPoolGets, CounterBuildArenaPoolFresh,
		CounterKernelPairsEager,
		CounterPDIterations, CounterPDRouted,
		CounterPDPruneChecked, CounterPDPruneSurvivors,
		CounterPDUsagePoolGets, CounterPDUsagePoolFresh,
		CounterExactVars, CounterExactCons,
		CounterILPSolves, CounterILPBBNodes, CounterILPBBPruned,
		CounterILPSimplexIters, CounterILPLazyActive,
		CounterILPLPWarm, CounterILPLPCold,
		CounterILPScratchGets, CounterILPScratchFresh,
		CounterHierTilesSolved, CounterHierTilesTimedOut,
		CounterHierGreedyRouted,
		CounterHierUsagePoolGets, CounterHierUsagePoolFresh,
		CounterClusterBitsRouted, CounterClusterBitsLeft,
		CounterClusterClusters,
		CounterRefinePinsFixed, CounterRefinePinsLeft,
		CounterRefineAddedWL,
		CounterAuditViolations, CounterAuditBits, CounterAuditEdges,
		CounterFallbackAttempts,
		CounterJobsReplayRecords, CounterJobsReplaySkipped,
		CounterJobsRecovered, CounterJobsSubmitted, CounterJobsDedup,
		CounterJobsStarted, CounterJobsRetries, CounterJobsSucceeded,
		CounterJobsFailed, CounterJobsCanceled, CounterJobsInterrupted,
		CounterJobsAppendErrors,
		CounterCacheHit, CounterCacheMiss, CounterCacheIncremental,
		CounterCacheInvalidated, CounterCacheKept,
		CounterCacheColdFall, CounterCacheAuditReject,
	}
	m := make(map[string]struct{}, len(names))
	for _, n := range names {
		m[n] = struct{}{}
	}
	return m
}()

// KnownCounter reports whether name is in the canonical counter registry.
func KnownCounter(name string) bool {
	_, ok := knownCounters[name]
	return ok
}

// KnownCounterNames returns the sorted canonical counter registry.
func KnownCounterNames() []string {
	out := make([]string, 0, len(knownCounters))
	for n := range knownCounters {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
