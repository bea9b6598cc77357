// Command streak routes a signal-group design with the Streak flow and
// prints the resulting metrics and congestion map.
//
// Usage:
//
//	streak -design path/to/design.json [-method pd|ilp|hier] [-ilptime 60s]
//	       [-fallback] [-timeout 0] [-audit off|warn|strict] [-workers 0]
//	       [-nopost] [-heatmap] [-out routed.json]
//	       [-stats report.json] [-debug-addr :6060] [-faultinject SPEC]
//	streak -industry 3 [-scale 0.2] ...
//
// With -stats the run writes a JSON telemetry report (per-stage spans,
// solver counters, labels, congestion snapshot; see DESIGN.md
// "Observability"). With -debug-addr the run serves /debug/streak,
// /debug/vars and /debug/pprof/ for live inspection while the flow
// executes.
//
// -faultinject arms deterministic faults at the compiled-in chaos sites
// (see internal/faultinject), e.g. "exact.solve=panic" to force the ILP
// rung onto the fallback chain — the knob the chaos suite turns.
//
// The command exits nonzero whenever no usable routing was produced: a
// failed run, an exhausted fallback chain (every failed rung is printed),
// or a deadline that expired before any group routed.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/benchgen"
	"repro/internal/faultinject"
	"repro/internal/obs"

	streak "repro"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its environment injected so tests can drive the whole
// command in-process and assert on exit codes and output.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("streak", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		designPath = fs.String("design", "", "design JSON file to route")
		industry   = fs.Int("industry", 0, "generate Industry<n> benchmark (1..7) instead of loading a file")
		scale      = fs.Float64("scale", 1.0, "scale factor for generated benchmarks (0,1]")
		method     = fs.String("method", "pd", "selection solver: pd, ilp or hier")
		ilpTime    = fs.Duration("ilptime", 60*time.Second, "ILP time limit")
		timeout    = fs.Duration("timeout", 0, "overall deadline for the whole flow (0 = none)")
		fallback   = fs.Bool("fallback", false, "degrade ilp -> hier -> pd on solver failure instead of aborting")
		auditMode  = fs.String("audit", "off", "post-solve legality audit: off, warn or strict")
		workers    = fs.Int("workers", 0, "parallel workers for the problem build (0 = GOMAXPROCS, 1 = sequential)")
		noPost     = fs.Bool("nopost", false, "disable the post-optimization stage")
		heatmap    = fs.Bool("heatmap", false, "print the congestion heatmap")
		svgOut     = fs.String("svg", "", "write the routed design as SVG to this file")
		statsOut   = fs.String("stats", "", "write the run's telemetry report (stage spans, solver counters, congestion) as JSON to this file")
		debugAddr  = fs.String("debug-addr", "", "serve the live debug endpoint (/debug/streak, expvar, net/http/pprof) on this address, e.g. :6060")
		faultSpec  = fs.String("faultinject", "", "arm deterministic faults, e.g. 'exact.solve=panic;hier.tile=delay:2s' (chaos testing)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	design, err := loadDesign(*designPath, *industry, *scale)
	if err != nil {
		fmt.Fprintln(stderr, "streak:", err)
		return 1
	}

	opt := streak.DefaultOptions()
	switch *method {
	case "pd":
	case "ilp":
		opt.Method = streak.ILP
		opt.ILPTimeLimit = *ilpTime
		opt.ILPWarmStart = true
	case "hier":
		opt.Method = streak.Hierarchical
		opt.HierTimePerTile = *ilpTime / 4
	default:
		fmt.Fprintf(stderr, "streak: unknown method %q (want pd, ilp or hier)\n", *method)
		return 2
	}
	opt.Route.Workers = *workers
	if *noPost {
		opt.PostOpt = false
		opt.Clustering = false
		opt.Refinement = false
	}
	opt.Fallback = streak.Fallback{Enabled: *fallback}
	switch *auditMode {
	case "off":
	case "warn":
		opt.Audit = streak.AuditWarn
	case "strict":
		opt.Audit = streak.AuditStrict
	default:
		fmt.Fprintf(stderr, "streak: unknown audit mode %q (want off, warn or strict)\n", *auditMode)
		return 2
	}

	ctx := context.Background()
	if *faultSpec != "" {
		plan, err := faultinject.ParseSpec(*faultSpec)
		if err != nil {
			fmt.Fprintln(stderr, "streak:", err)
			return 2
		}
		ctx = faultinject.With(ctx, plan)
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// Telemetry: -stats and -debug-addr both hang a recorder on the
	// context; the pipeline stages pick it up via obs.FromContext.
	var rec *obs.Recorder
	if *statsOut != "" || *debugAddr != "" {
		rec = obs.NewRecorder()
		rec.SetLabel("bench", design.Name)
		rec.SetLabel("method", opt.Method.String())
		rec.AnnotateBuildInfo()
		ctx = obs.WithRecorder(ctx, rec)
	}
	if *debugAddr != "" {
		srv, bound, err := obs.ServeDebug(*debugAddr, rec)
		if err != nil {
			fmt.Fprintln(stderr, "streak:", err)
			return 1
		}
		defer srv.Close()
		fmt.Fprintf(stderr, "debug endpoint on http://%s/debug/streak\n", bound)
	}

	res, err := streak.RouteCtx(ctx, design, opt)
	if *statsOut != "" {
		// Write the report even on failure: the spans and counters up to
		// the failing stage are exactly what a post-mortem needs.
		rep := rec.Report()
		if res != nil {
			rep.Congestion = obs.SnapshotCongestion(res.Usage, 16)
		}
		if werr := writeStats(*statsOut, rep); werr != nil {
			fmt.Fprintln(stderr, "streak:", werr)
			return 1
		}
	}
	if err != nil {
		var ex *streak.ExhaustedError
		if errors.As(err, &ex) {
			// Chain exhaustion gets the full degradation history, one rung
			// per line, so the operator sees every failure — not just the
			// last — before the verdict.
			for _, a := range ex.Attempts {
				fmt.Fprintf(stderr, "streak: solver %s failed: %s\n", a.Solver, a.Err)
			}
			fmt.Fprintf(stderr, "streak: all %d solvers failed; no routing produced\n", len(ex.Attempts))
			return 1
		}
		fmt.Fprintln(stderr, "streak:", err)
		if res == nil {
			return 1
		}
		// Strict-audit failures still carry the result; report it below so
		// the violations can be diagnosed, then exit nonzero.
	}
	if err == nil && res.TimedOut && res.Metrics.RoutedGroups == 0 {
		// A deadline that expired before anything routed is a failure, not
		// a report full of zeros with exit code 0.
		fmt.Fprintln(stderr, "streak: deadline expired before any group routed; no usable result")
		return 1
	}

	m := res.Metrics
	fmt.Fprintf(stdout, "design      %s (%d groups, %d nets, %d pins)\n", design.Name, m.Groups, m.Nets, m.Pins)
	fmt.Fprintf(stdout, "method      %s%s\n", opt.Method, solverNote(res))
	fmt.Fprintf(stdout, "route       %.2f%% (%d/%d groups)\n", m.RouteFrac*100, m.RoutedGroups, m.Groups)
	fmt.Fprintf(stdout, "wirelength  %.2fe5\n", m.WL/1e5)
	fmt.Fprintf(stdout, "avg(reg)    %.2f%%\n", m.AvgReg*100)
	fmt.Fprintf(stdout, "vio(dst)    %d (before refinement: %d)\n", m.VioDst, res.VioBefore)
	fmt.Fprintf(stdout, "overflow    %d (%d edges)\n", m.Overflow, m.OverflowEdges)
	fmt.Fprintf(stdout, "runtime     %.2fs%s\n", res.Runtime.Seconds(), timedOutNote(res.TimedOut))
	for _, a := range res.Attempts {
		fmt.Fprintf(stdout, "fallback    %s failed: %s\n", a.Solver, a.Err)
	}
	if res.Audit != nil {
		fmt.Fprintf(stdout, "audit       %s\n", res.Audit.Summary())
		for _, v := range res.Audit.Violations {
			fmt.Fprintf(stdout, "  violation %s\n", v)
		}
	}
	if *statsOut != "" {
		fmt.Fprintf(stdout, "stats       %s\n", *statsOut)
	}
	if *heatmap {
		fmt.Fprintln(stdout, "\ncongestion map:")
		streak.WriteHeatmap(stdout, res, 64)
	}
	if *svgOut != "" {
		f, err := os.Create(*svgOut)
		if err != nil {
			fmt.Fprintln(stderr, "streak:", err)
			return 1
		}
		if err := streak.WriteSVG(f, res); err != nil {
			fmt.Fprintln(stderr, "streak:", err)
			return 1
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(stderr, "streak:", err)
			return 1
		}
		fmt.Fprintf(stdout, "svg         %s\n", *svgOut)
	}
	if err != nil {
		return 1
	}
	return 0
}

// writeStats writes the telemetry report as indented JSON.
func writeStats(path string, rep obs.Report) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// solverNote annotates the method line when the fallback chain degraded.
func solverNote(res *streak.Result) string {
	if !res.Degraded {
		return ""
	}
	return fmt.Sprintf(" (degraded to %s)", res.SolverUsed)
}

func timedOutNote(timedOut bool) string {
	if timedOut {
		return " (ILP time limit reached; best feasible reported)"
	}
	return ""
}

func loadDesign(path string, industry int, scale float64) (*streak.Design, error) {
	switch {
	case path != "" && industry != 0:
		return nil, fmt.Errorf("use either -design or -industry, not both")
	case path != "":
		return streak.LoadDesign(path)
	case industry >= 1 && industry <= 7:
		spec := benchgen.Industry(industry)
		if scale < 1 {
			spec = benchgen.Scale(spec, scale)
		}
		return spec.Generate(), nil
	default:
		return nil, fmt.Errorf("need -design FILE or -industry N (1..7)")
	}
}
