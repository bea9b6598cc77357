// Command experiments regenerates the paper's evaluation tables and
// figures on the synthetic Industry benchmarks.
//
// Usage:
//
//	experiments -table 1                # Table I (manual vs ILP vs PD)
//	experiments -table 2                # Table II (post optimization)
//	experiments -fig 11                 # Industry7 congestion maps
//	experiments -fig 13                 # scalability CSV
//	experiments -all                    # everything
//	experiments -all -scale 0.1 -ilptime 5s -bench 1,3,7
//	experiments -table 1 -cpuprofile cpu.pprof -memprofile mem.pprof
//	experiments -table 1 -stats stats.json   # per-bench stage telemetry
//
// With -stats every solver run is recorded (stage spans, counters); the
// per-bench stage table prints after the experiments and the full reports
// are written to the given JSON file.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
)

func main() {
	os.Exit(run())
}

// run executes the requested experiments and returns the exit code. It is
// separate from main so the profiling defers flush before the process
// exits.
func run() int {
	var (
		table      = flag.Int("table", 0, "regenerate Table N (1 or 2)")
		fig        = flag.Int("fig", 0, "regenerate Fig N (11, 12, 13, 14 or 15)")
		all        = flag.Bool("all", false, "regenerate every table and figure")
		scale      = flag.Float64("scale", 0.2, "benchmark scale factor (1 = full size)")
		ilpTime    = flag.Duration("ilptime", 20*time.Second, "ILP time limit")
		benchs     = flag.String("bench", "", "comma-separated Industry numbers (default all)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		statsOut   = flag.String("stats", "", "collect per-run solver telemetry, print the stage table and write the reports as JSON to this file")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiments: memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // up-to-date allocation statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: memprofile: %v\n", err)
			}
		}()
	}

	cfg := experiments.Config{
		Out:     os.Stdout,
		Scale:   *scale,
		ILPTime: *ilpTime,
	}
	if *statsOut != "" {
		cfg.Stats = obs.NewCollector()
	}
	if *benchs != "" {
		for _, part := range strings.Split(*benchs, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n < 1 || n > 7 {
				fmt.Fprintf(os.Stderr, "experiments: bad benchmark %q\n", part)
				return 2
			}
			cfg.Benchmarks = append(cfg.Benchmarks, n)
		}
	}

	do := func(name string, fn func(experiments.Config) error) error {
		fmt.Printf("\n===== %s =====\n", name)
		if err := fn(cfg); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}

	type job struct {
		enabled bool
		name    string
		fn      func(experiments.Config) error
	}
	jobs := []job{
		{*all || *table == 1, "Table I", experiments.Table1},
		{*all || *table == 2, "Table II", experiments.Table2},
		{*all || *fig == 11, "Fig 11", func(c experiments.Config) error { return experiments.CongestionMaps(c, 7) }},
		{*all || *fig == 12, "Fig 12", func(c experiments.Config) error { return experiments.CongestionMaps(c, 6) }},
		{*all || *fig == 13, "Fig 13", experiments.Fig13},
		{*all || *fig == 14, "Fig 14", experiments.Fig14},
		{*all || *fig == 15, "Fig 15", experiments.Fig15},
	}
	did := false
	for _, j := range jobs {
		if !j.enabled {
			continue
		}
		if err := do(j.name, j.fn); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			return 1
		}
		did = true
	}
	if !did {
		fmt.Fprintln(os.Stderr, "experiments: nothing to do; use -table, -fig or -all")
		return 2
	}
	if cfg.Stats != nil {
		fmt.Println()
		experiments.StageTable(os.Stdout, cfg.Stats)
		if err := writeFileWith(*statsOut, func(f *os.File) error {
			return experiments.WriteStats(f, cfg.Stats)
		}); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: stats: %v\n", err)
			return 1
		}
		fmt.Printf("\nstats written to %s (%d runs)\n", *statsOut, len(cfg.Stats.Runs()))
	}
	return 0
}

// writeFileWith creates the file, runs the writer and closes it, reporting
// the first error.
func writeFileWith(path string, fn func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
