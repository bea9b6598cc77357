package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	streak "repro"
	"repro/internal/benchgen"
	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/signal"
	"repro/internal/solvecache"
)

// request is one HTTP request of a workload. Bodies are encoded when the
// workload is generated, before anything is timed; requests of the same
// kind share one body slice.
type request struct {
	path   string // "/route" or "/jobs"
	query  string
	body   []byte
	sum    [32]byte    // sha256 of body, for the input digest
	kind   int         // index into workload.kinds: same kind, same expected response
	method core.Method // solver the query asks for (the daemon's base method when the query names none)
	expect string      // scripted cache outcome; "" when the request bypasses the cache
}

// workload is a generated input set plus the daemon configuration that
// serves it.
type workload struct {
	name    string
	clients int          // closed-loop clients
	cycle   int          // a run sends whole multiples of this many requests
	opt     core.Options // the daemon's base flow options
	durable bool         // jobs WAL, telemetry lake and capture ring on disk
	kinds   []*request   // one representative request per kind
	prefix  []request    // served by an earlier, untimed daemon life
	warmup  []request    // untimed, part of set-up
	timed   []request    // the measured stream, in send order
	quality []int        // kinds whose routing quality is reported
	digest  string       // sha256 over every request, see inputDigest
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"cold", "eco", "exact"}

// Stream lengths are caps, sized to several times what a run at the
// current speed sends; a run that exhausts its stream ends early.
const (
	coldRequests  = 8000
	exactRequests = 3000
	ecoRequests   = 2000

	// ecoEpisode is how many steps an ECO episode takes before the stream
	// restarts from the base design: three edits and one repeat. A single
	// random walk accumulates blockages, so later requests would be harder
	// and a faster commit would be measured on harder designs than a
	// slower one; short episodes also keep a congestion-heavy edit from
	// weighing on many requests, which keeps the tail steady across seeds.
	ecoEpisode = 4
	// ecoPrefix is how many requests the earlier daemon life serves (the
	// base design and six episodes); its jobs WAL, telemetry lake and
	// capture ring are what set-up replays.
	ecoPrefix = 1 + 6*ecoEpisode
	// ecoQuality is how many distinct timed designs the quality metrics
	// of eco average over: a fixed prefix, so a faster commit that gets
	// further into the stream reports quality on the same designs.
	ecoQuality = 24
)

// flowOptions is the base configuration of a default streakd daemon
// started with -method m: post-optimization on, audit warn, fallback on,
// and for ilp the 60 s warm-started ILP that streakd -method ilp sets.
func flowOptions(m core.Method) core.Options {
	opt := streak.DefaultOptions()
	if m == core.ILP {
		opt.Method = core.ILP
		opt.ILPTimeLimit = 60 * time.Second
		opt.ILPWarmStart = true
	}
	opt.Audit = core.AuditWarn
	opt.Fallback = core.Fallback{Enabled: true}
	return opt
}

// optionsFor applies a request's method override the way the server's
// per-request ?method= does: only Method changes.
func (w *workload) optionsFor(r *request) core.Options {
	opt := w.opt
	opt.Method = r.method
	return opt
}

// newWorkload generates the named workload's inputs from the seed.
func newWorkload(name string, seed int64) (*workload, error) {
	var w *workload
	switch name {
	case "cold":
		w = coldWorkload(seed)
	case "eco":
		w = ecoWorkload(seed)
	case "exact":
		w = exactWorkload(seed)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	w.digest = inputDigest(w, seed)
	return w, nil
}

func encode(d *signal.Design) ([]byte, [32]byte) {
	body, err := json.Marshal(d)
	if err != nil {
		// Generated designs always marshal; failing here is a bug.
		panic(fmt.Sprintf("encoding design %s: %v", d.Name, err))
	}
	return body, sha256.Sum256(body)
}

// rotate lists the round's kinds in a fresh seeded permutation per round
// until n requests are listed, so every stretch of the stream carries
// every kind.
func rotate(rng *rand.Rand, kinds []*request, round []int, n int) []request {
	out := make([]request, 0, n)
	for len(out) < n {
		for _, i := range rng.Perm(len(round)) {
			out = append(out, *kinds[round[i]])
		}
	}
	return out[:n]
}

// coldWorkload: Industry1-7 at scale 0.1, each request a full cold solve
// (?cache=off) on a default pd daemon.
func coldWorkload(seed int64) *workload {
	w := &workload{name: "cold", clients: 2, opt: flowOptions(core.PrimalDual)}
	for n := 1; n <= 7; n++ {
		body, sum := encode(benchgen.Scale(benchgen.Industry(n), 0.1).Generate())
		w.kinds = append(w.kinds, &request{path: "/route", query: "cache=off", body: body, sum: sum, kind: n - 1, method: core.PrimalDual})
	}
	return finishRotation(w, seed, coldRequests)
}

// exactWorkload: a streakd -method ilp daemon, rotating ?method=ilp over
// Industry1/2/3/4/7 and ?method=hier over Industry1/2/3/4/6/7 at scale
// 0.06, cache off. Industry5 (both solvers) and Industry6 (ILP) run into
// any time limit, so they would time the limit, not the solver.
func exactWorkload(seed int64) *workload {
	w := &workload{name: "exact", clients: 1, opt: flowOptions(core.ILP)}
	bodies := map[int]*request{}
	for _, n := range []int{1, 2, 3, 4, 6, 7} {
		body, sum := encode(benchgen.Scale(benchgen.Industry(n), 0.06).Generate())
		bodies[n] = &request{body: body, sum: sum}
	}
	add := func(method string, m core.Method, ns ...int) {
		for _, n := range ns {
			r := *bodies[n]
			r.path, r.query, r.method, r.kind = "/route", "cache=off&method="+method, m, len(w.kinds)
			w.kinds = append(w.kinds, &r)
		}
	}
	add("ilp", core.ILP, 1, 2, 3, 4, 7)
	add("hier", core.Hierarchical, 1, 2, 3, 4, 6, 7)
	// A round of the 11 kinds alone puts p90 on the upper tail of the
	// second-slowest kind (hier on Industry2), where it jumps between
	// runs. Sending the four smallest solves (ilp on Industry1/3/4, hier
	// on Industry1) twice makes a round of 15, whose slowest 10% is the
	// slowest kind (hier on Industry6) plus half of the second-slowest: p90
	// is then that kind's median.
	return finishRotation(w, seed, exactRequests, 0, 2, 3, 5)
}

// finishRotation lists the warm-up (each kind once), the quality kinds
// (all) and the timed stream: rounds of every kind once plus the twice
// kinds once more.
func finishRotation(w *workload, seed int64, n int, twice ...int) *workload {
	var round []int
	for _, k := range w.kinds {
		w.warmup = append(w.warmup, *k)
		w.quality = append(w.quality, k.kind)
		round = append(round, k.kind)
	}
	round = append(round, twice...)
	w.cycle = len(round)
	w.timed = rotate(rand.New(rand.NewSource(seed)), w.kinds, round, n)
	return w
}

// ecoWorkload is a seeded ECO churn stream on Industry2 at scale 0.06,
// served by a durable daemon through the solve cache. Episodes of
// ecoEpisode steps start from the base design; each step applies one
// scenario.Mutate edit (a moved group, an added or a removed blockage)
// or, one step in four, resubmits the previous design verbatim. One edit
// in four goes through POST /jobs. Every edit yields a design the stream
// has not sent before, so a repeat is always an exact cache hit and an
// edit is always a miss that the cache can serve incrementally.
func ecoWorkload(seed int64) *workload {
	w := &workload{name: "eco", clients: 1, cycle: 1, opt: flowOptions(core.PrimalDual), durable: true}
	rng := rand.New(rand.NewSource(seed))
	base := benchgen.Scale(benchgen.Industry(2), 0.06).Generate()
	seen := map[solvecache.Key]bool{solvecache.KeyFor(base, w.opt): true}
	newKind := func(d *signal.Design, path string) request {
		body, sum := encode(d)
		r := request{path: path, body: body, sum: sum, kind: len(w.kinds), method: w.opt.Method, expect: "incremental"}
		w.kinds = append(w.kinds, &r)
		return r
	}
	stream := []request{newKind(base, "/route")}
	stream[0].expect = "cold"
	for edits := 0; len(stream) < ecoPrefix+ecoRequests; {
		cur := base
		repeat := 1 + rng.Intn(ecoEpisode-1)
		for i := 0; i < ecoEpisode; i++ {
			if i == repeat {
				r := stream[len(stream)-1]
				r.path, r.expect = "/route", "hit"
				stream = append(stream, r)
				continue
			}
			var label string
			for {
				var next *signal.Design
				next, label = scenario.Mutate(rng, cur)
				if k := solvecache.KeyFor(next, w.opt); !seen[k] {
					seen[k] = true
					cur = next
					break
				}
			}
			edits++
			cur.Name = fmt.Sprintf("%s-eco%04d-%s", base.Name, edits, label)
			path := "/route"
			if edits%4 == 0 {
				path = "/jobs"
			}
			stream = append(stream, newKind(cur, path))
		}
	}
	w.prefix = stream[:ecoPrefix]
	// The rebooted daemon's cache is empty: warm-up sends the base design,
	// a cold solve that seeds the cache with the delta base of the first
	// timed edit (the prefix ends on an episode boundary).
	w.warmup = []request{stream[0]}
	w.timed = stream[ecoPrefix : ecoPrefix+ecoRequests]
	for _, r := range w.timed {
		if len(w.quality) < ecoQuality && r.expect == "incremental" {
			w.quality = append(w.quality, r.kind)
		}
	}
	return w
}

// inputDigest fingerprints everything the benchmark sends: workload, seed
// and every request's path, query and body, in order. Two runs that print
// the same digest sent byte-identical inputs.
func inputDigest(w *workload, seed int64) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%d\x00", w.name, seed)
	for _, list := range [][]request{w.prefix, w.warmup, w.timed} {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(list)))
		h.Write(n[:])
		for _, r := range list {
			fmt.Fprintf(h, "%s?%s\x00", r.path, r.query)
			h.Write(r.sum[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
