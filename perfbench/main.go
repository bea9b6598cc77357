// Command perfbench is the repository's benchmark: it drives the real
// streakd handler (server.Server) in-process over loopback HTTP with
// closed-loop clients, checks every response, and prints the end-to-end
// metrics; with --trace 1 it instead replays the served requests through
// the layers' public functions and prints per-layer metrics.
//
// Run it from the repository root through its wrapper, which builds it
// with all build state under .bench_build:
//
//	bash perfbench/run.sh --workload cold --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The lines before it record the
// environment, the input digest and every metric with its unit, direction
// and sample count.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/signal"
)

// metricSpec is one reported metric as BENCHMARK.json lists it.
type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics of an untraced run (--trace 0).
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"solve_gmean_ms", "ms", "lower"},
	{"solve_p90_ms", "ms", "lower"},
	{"rps", "1/s", "higher"},
	{"route_pct", "%", "higher"},
	{"wl", "pitch", "lower"},
	{"reg_pct", "%", "higher"},
	{"peak_rss_mb", "MiB", "lower"},
	{"alloc_mb_per_req", "MiB", "lower"},
}

// perLayer are the metrics of a traced run (--trace 1).
func perLayer() []metricSpec {
	var out []metricSpec
	for _, l := range requestLayers {
		out = append(out, metricSpec{l + "_ms", "ms", "lower"}, metricSpec{l + "_alloc_kb", "KiB", "lower"})
	}
	for _, l := range bootLayers {
		out = append(out, metricSpec{l + "_ms", "ms", "lower"}, metricSpec{l + "_alloc_kb", "KiB", "lower"})
	}
	for _, n := range counterNames {
		spec := metricSpec{n, "count", "lower"}
		if strings.HasSuffix(n, "_frac") {
			spec.Unit = "frac"
		}
		switch n {
		case "pd.routed_frac", "ilp.lp.warm_frac", "route.kept_frac", "cache.hit_frac", "cache.incremental_frac", "postopt.refine.pins_fixed", "postopt.cluster.bits_routed":
			spec.Better = "higher"
		}
		out = append(out, spec)
	}
	return append(out,
		metricSpec{"server.overhead_ms", "ms", "lower"},
		metricSpec{"hit_p50_ms", "ms", "lower"},
		metricSpec{"job_p50_ms", "ms", "lower"},
	)
}

const (
	// setupRounds is how many times a run sets the daemon up; setup_s is
	// the median.
	setupRounds = 3
	// minSolves keeps an untraced run going past --seconds until p90 has
	// ten samples beyond it.
	minSolves = 100
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fl.Int64("seed", 1, "input seed: the same seed sends the same requests")
	seconds := fl.Int("seconds", 25, "measured seconds per run")
	trace := fl.Int("trace", 0, "1 replays the served requests through each layer and reports per-layer metrics")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	w, err := newWorkload(*name, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	tmp, err := os.MkdirTemp("", "perfbench-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	printEnv(stdout, w, *seed)
	dur := time.Duration(*seconds) * time.Second
	var rep *report
	if *trace == 0 {
		rep, err = measure(w, tmp, dur)
	} else {
		rep, err = traced(w, tmp, dur)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rep.print(stdout, *trace == 1)
	return 0
}

// report is one run's outcome.
type report struct {
	attempted, failed int
	failures          map[string]int     // failed requests by reason
	values            map[string]float64 // every metric computed
	samples           map[string]int     // sample count behind each metric
	extra             map[string]float64 // printed, not in BENCHMARK.json
	order             []string           // print order of extra
}

func newReport() *report {
	return &report{failures: map[string]int{}, values: map[string]float64{}, samples: map[string]int{}, extra: map[string]float64{}}
}

func (r *report) set(name string, v float64, n int) {
	r.values[name] = v
	r.samples[name] = n
}

func (r *report) setExtra(name string, v float64) {
	r.extra[name] = v
	r.order = append(r.order, name)
}

// print writes the human-readable table, then the result line.
func (r *report) print(out io.Writer, traced bool) {
	specs := endToEnd
	if traced {
		specs = perLayer()
	}
	fmt.Fprintf(out, "attempted %d, failed %d", r.attempted, r.failed)
	for _, reason := range sortedKeys(r.failures) {
		fmt.Fprintf(out, ", %s=%d", reason, r.failures[reason])
	}
	fmt.Fprintln(out)
	fmt.Fprintf(out, "%-34s %14s %-6s %-6s %s\n", "metric", "value", "unit", "better", "samples")
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metricsOut := map[string]value{}
	for _, s := range specs {
		v := r.values[s.Name]
		fmt.Fprintf(out, "%-34s %14.4f %-6s %-6s %d\n", s.Name, v, s.Unit, s.Better, r.samples[s.Name])
		metricsOut[s.Name] = value{v, s.Unit}
	}
	for _, name := range r.order {
		fmt.Fprintf(out, "%-34s %14.4f (reported, not gated)\n", name, r.extra[name])
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, metricsOut})
	if err != nil {
		// Only finite floats and strings; a failure here is a bug.
		panic(err)
	}
	fmt.Fprintf(out, "%s\n", line)
}

// measure is the untraced run: set-up (timed setupRounds times), the
// closed loop for dur, then the correctness checks and metrics.
func measure(w *workload, tmp string, dur time.Duration) (*report, error) {
	refs, err := w.upfrontReferences()
	if err != nil {
		return nil, err
	}
	state, err := prefixLife(w, tmp)
	if err != nil {
		return nil, err
	}
	rep := newReport()
	var setups []float64
	var d *daemon
	for i := 0; i < setupRounds; i++ {
		if d != nil {
			if err := d.close(); err != nil {
				return nil, err
			}
		}
		dir := filepath.Join(tmp, "state-"+strconv.Itoa(i))
		if err := copyState(state, dir); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if d, err = setUp(w, dir); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	rep.set("setup_s", median(setups), len(setups))

	// Return set-up's and the reference solves' garbage to the OS, so the
	// window's peak is not theirs.
	debug.FreeOSMemory()
	stopRSS := make(chan struct{})
	peakRSS := sampleRSS(stopRSS)
	a0 := heapAllocated()
	results, elapsed := d.drive(w.timed, w.clients, w.cycle, dur, minSolves)
	allocated := heapAllocated() - a0
	close(stopRSS)
	peak := <-peakRSS
	err = peak.err
	if cerr := d.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if err := w.laterReferences(results, refs); err != nil {
		return nil, err
	}
	rep.tally(results, refs, nil)
	if err := rep.endToEnd(w, results, elapsed); err != nil {
		return nil, err
	}
	rep.set("peak_rss_mb", peak.mb, peak.samples)
	rep.set("alloc_mb_per_req", float64(allocated)/(1<<20)/float64(len(results)), len(results))
	return rep, nil
}

// tally checks every result and counts failures by reason; a result that
// passes but whose replay did not match the handler fails as "replica".
func (r *report) tally(results []result, refs map[int]metrics.Metrics, mismatched map[int]bool) {
	r.attempted += len(results)
	for i := range results {
		reason := check(&results[i], refs)
		if reason == "" && mismatched[i] {
			reason = "replica"
		}
		if reason != "" {
			r.failed++
			r.failures[reason]++
		}
	}
}

// endToEnd computes the latency, throughput and quality metrics.
func (r *report) endToEnd(w *workload, results []result, elapsed time.Duration) error {
	var solves, hits, jobs []float64
	for i := range results {
		res := &results[i]
		if res.err != nil {
			continue
		}
		ms := float64(res.latency.Nanoseconds()) / 1e6
		switch {
		case !res.solved():
			hits = append(hits, ms)
		case res.req.path == "/jobs":
			jobs = append(jobs, ms)
			solves = append(solves, ms)
		default:
			solves = append(solves, ms)
		}
	}
	g, err := gmean(solves)
	if err != nil {
		return fmt.Errorf("solve_gmean_ms: %w", err)
	}
	r.set("solve_gmean_ms", g, len(solves))
	p90, err := percentile(solves, 0.9)
	if err != nil {
		return fmt.Errorf("solve_p90_ms: %w", err)
	}
	r.set("solve_p90_ms", p90, len(solves))
	r.set("rps", float64(len(results))/elapsed.Seconds(), len(results))
	r.setExtra("fail_frac", ratio(float64(r.failed), float64(r.attempted)))
	if len(hits) > 0 {
		r.setExtra("hit_p50_ms", median(hits))
	}
	if len(jobs) > 0 {
		r.setExtra("job_p50_ms", median(jobs))
	}
	return r.quality(w, results)
}

// quality averages routing quality over the workload's quality kinds, read
// from the first passing response of each.
func (r *report) quality(w *workload, results []result) error {
	got := map[int]metrics.Metrics{}
	for i := range results {
		res := &results[i]
		if _, ok := got[res.req.kind]; !ok && res.err == nil {
			got[res.req.kind] = res.resp.Metrics
		}
	}
	var route, wl, reg, vio, over []float64
	for _, k := range w.quality {
		m, ok := got[k]
		if !ok {
			return fmt.Errorf("quality design %d was not served", k)
		}
		route = append(route, 100*m.RouteFrac)
		wl = append(wl, m.WL)
		reg = append(reg, 100*m.AvgReg)
		vio = append(vio, float64(m.VioDst))
		over = append(over, float64(m.Overflow))
	}
	n := len(w.quality)
	r.set("route_pct", mean(route), n)
	r.set("wl", mean(wl), n)
	r.set("reg_pct", mean(reg), n)
	r.setExtra("vio_dst", mean(vio))
	r.setExtra("overflow", mean(over))
	return nil
}

// traced is the per-layer run. One client sends the stream for dur, and
// after each HTTP request the replica serves the same request through the
// layers' public functions. Interleaving puts both under the same machine
// conditions, and one client keeps contention out of the layer times, so
// server.overhead_ms is what HTTP, admission and the handler add.
func traced(w *workload, tmp string, dur time.Duration) (*report, error) {
	refs, err := w.upfrontReferences()
	if err != nil {
		return nil, err
	}
	state, err := prefixLife(w, tmp)
	if err != nil {
		return nil, err
	}
	dir, rdir := filepath.Join(tmp, "state"), filepath.Join(tmp, "replica")
	if err := copyState(state, dir, rdir); err != nil {
		return nil, err
	}
	d, err := setUp(w, dir)
	if err != nil {
		return nil, err
	}
	defer d.close()
	rp, err := newReplica(w, rdir)
	if err != nil {
		return nil, err
	}
	defer rp.close()
	ctx := context.Background()
	for i := range w.warmup {
		if _, err := rp.serve(ctx, &w.warmup[i]); err != nil {
			return nil, fmt.Errorf("replica warm-up: %w", err)
		}
	}
	rp.clk = newClock()

	var results []result
	mismatched := map[int]bool{}
	start := time.Now()
	for i := 0; i < len(w.timed) && time.Since(start) < dur; i++ {
		res := d.do(&w.timed[i])
		out, err := rp.serve(ctx, res.req)
		if err != nil {
			return nil, fmt.Errorf("replica request %d: %w", i, err)
		}
		// The replica must reproduce the handler's routing, cache outcome
		// and solver, or it did not take the handler's path.
		if !sameRouting(out.metrics, res.resp.Metrics) || out.cache != res.resp.Cache || out.solver != res.resp.Solver {
			mismatched[i] = true
		}
		results = append(results, res)
	}
	if err := w.laterReferences(results, refs); err != nil {
		return nil, err
	}
	rep := newReport()
	rep.tally(results, refs, mismatched)
	if state != "" {
		if err := timeBoot(rp.clk, state, filepath.Join(tmp, "boot")); err != nil {
			return nil, err
		}
	}
	var all, hits, jobs []float64
	for i := range results {
		ms := float64(results[i].latency.Nanoseconds()) / 1e6
		all = append(all, ms)
		switch {
		case results[i].err != nil:
		case !results[i].solved():
			hits = append(hits, ms)
		case results[i].req.path == "/jobs":
			jobs = append(jobs, ms)
		}
	}
	n := len(results)
	for name, v := range layerMetrics(rp.clk, n, mean(all)) {
		rep.set(name, v, n)
	}
	for _, l := range bootLayers {
		rep.samples[l+"_ms"], rep.samples[l+"_alloc_kb"] = 1, 1
	}
	rep.set("hit_p50_ms", median(hits), len(hits))
	rep.set("job_p50_ms", median(jobs), len(jobs))
	return rep, nil
}

// setUp boots a daemon on dir and sends the warm-up requests.
func setUp(w *workload, dir string) (*daemon, error) {
	d, err := startDaemon(w, dir)
	if err != nil {
		return nil, err
	}
	if err := d.serveAll(w.warmup); err != nil {
		d.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return d, nil
}

// prefixLife runs the earlier, untimed daemon life of a durable workload:
// it serves the stream's prefix and shuts down cleanly, leaving the jobs
// WAL, telemetry lake and capture ring that later set-ups boot on.
func prefixLife(w *workload, tmp string) (string, error) {
	if !w.durable {
		return "", nil
	}
	dir := filepath.Join(tmp, "prefix")
	d, err := startDaemon(w, dir)
	if err != nil {
		return "", err
	}
	if err := d.serveAll(w.prefix); err != nil {
		d.close()
		return "", fmt.Errorf("prefix: %w", err)
	}
	return dir, d.close()
}

// copyState gives each daemon life its own copy of the earlier life's
// state directory ("" for workloads without one).
func copyState(state string, dirs ...string) error {
	if state == "" {
		return nil
	}
	for _, dir := range dirs {
		if err := copyTree(state, dir); err != nil {
			return err
		}
	}
	return nil
}

// upfrontReferences solves every kind of a non-durable workload cold,
// in-process, before anything is timed.
func (w *workload) upfrontReferences() (map[int]metrics.Metrics, error) {
	if w.durable {
		return map[int]metrics.Metrics{}, nil
	}
	kinds := make([]int, len(w.kinds))
	for i := range kinds {
		kinds[i] = i
	}
	return w.references(kinds)
}

// laterReferences adds the cold solves of a durable workload's served
// designs, after the timed window: its stream is too long to solve ahead.
func (w *workload) laterReferences(results []result, refs map[int]metrics.Metrics) error {
	if !w.durable {
		return nil
	}
	var kinds []int
	want := map[int]bool{}
	for i := range results {
		if k := results[i].req.kind; results[i].err == nil && !want[k] {
			want[k] = true
			kinds = append(kinds, k)
		}
	}
	got, err := w.references(kinds)
	for k, m := range got {
		refs[k] = m
	}
	return err
}

// references cold-solves the given kinds with core.RunCtx and the options
// the daemon applies to them, two at a time.
func (w *workload) references(kinds []int) (map[int]metrics.Metrics, error) {
	out := make(map[int]metrics.Metrics, len(kinds))
	var mu sync.Mutex
	var errs []error
	work := make(chan int)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range work {
				m, err := w.reference(w.kinds[k])
				mu.Lock()
				if err != nil {
					errs = append(errs, fmt.Errorf("reference for kind %d: %w", k, err))
				} else {
					out[k] = m
				}
				mu.Unlock()
			}
		}()
	}
	for _, k := range kinds {
		work <- k
	}
	close(work)
	wg.Wait()
	return out, errors.Join(errs...)
}

func (w *workload) reference(r *request) (metrics.Metrics, error) {
	d, err := signal.ReadJSON(bytes.NewReader(r.body))
	if err != nil {
		return metrics.Metrics{}, err
	}
	res, err := core.RunCtx(context.Background(), d, w.optionsFor(r))
	if err != nil {
		return metrics.Metrics{}, err
	}
	if res.Degraded || res.TimedOut {
		return metrics.Metrics{}, fmt.Errorf("%s: reference solve degraded=%v timed_out=%v", d.Name, res.Degraded, res.TimedOut)
	}
	return res.Metrics, nil
}

// rssPeak is the largest resident set a sampleRSS run saw.
type rssPeak struct {
	mb      float64
	samples int
	err     error
}

// sampleRSS reads the process's resident set (/proc/self/statm) every
// 5 ms until stop is closed, then sends the largest value seen. Sampling
// only the timed window keeps set-up's and the reference solves' peaks
// out of peak_rss_mb.
func sampleRSS(stop <-chan struct{}) <-chan rssPeak {
	out := make(chan rssPeak, 1)
	go func() {
		var p rssPeak
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			data, err := os.ReadFile("/proc/self/statm")
			var pages int64
			if err == nil {
				fields := strings.Fields(string(data))
				if len(fields) < 2 {
					err = errors.New("short /proc/self/statm")
				} else {
					pages, err = strconv.ParseInt(fields[1], 10, 64)
				}
			}
			if err != nil {
				p.err = fmt.Errorf("resident set: %w", err)
				out <- p
				return
			}
			p.mb = max(p.mb, float64(pages*int64(os.Getpagesize()))/(1<<20))
			p.samples++
			select {
			case <-stop:
				out <- p
				return
			case <-tick.C:
			}
		}
	}()
	return out
}

// printEnv records what produced the numbers: toolchain, CPUs, source
// identity, seed and input digest.
func printEnv(out io.Writer, w *workload, seed int64) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	env := map[string]any{
		"workload":      w.name,
		"seed":          seed,
		"digest":        w.digest,
		"requests":      len(w.timed),
		"clients":       w.clients,
		"go":            runtime.Version(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"nproc":         runtime.NumCPU(),
		"commit":        commit,
		"source_digest": sourceDigest(),
	}
	line, _ := json.Marshal(env)
	fmt.Fprintf(out, "env %s\n", line)
}

// sourceDigest hashes the Go sources of the module in the working
// directory (the benchmark's own directory and build state excluded), so
// results from a checkout without git history still name their code.
func sourceDigest() string {
	var files []string
	filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if e.IsDir() && path != "." && (strings.HasPrefix(e.Name(), ".") || e.Name() == "perfbench") {
			return filepath.SkipDir
		}
		if !e.IsDir() && (strings.HasSuffix(path, ".go") || path == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s\x00%d\x00", f, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
