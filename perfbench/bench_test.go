package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

func TestGmean(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{4}, 4},
		{[]float64{1, 100}, 10},
		{[]float64{2, 8, 4}, 4},
	} {
		got, err := gmean(tc.xs)
		if err != nil || math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("gmean(%v) = %v, %v; want %v", tc.xs, got, err, tc.want)
		}
	}
	for _, xs := range [][]float64{nil, {1, 0}, {-1}} {
		if _, err := gmean(xs); err == nil {
			t.Errorf("gmean(%v) accepted samples it cannot average", xs)
		}
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // descending: the helper must sort
	}
	got, err := percentile(xs, 0.9)
	if err != nil || got != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90", got, err)
	}
	if _, err := percentile(xs[:99], 0.9); err == nil {
		t.Fatal("p90 of 99 samples has 9 beyond it and must be refused")
	}
	if got, err := percentile(xs[:20], 0.5); err != nil || got != 90 {
		t.Fatalf("p50 of 81..100 = %v, %v; want 90", got, err)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
}

func TestStreamDeterminism(t *testing.T) {
	for _, name := range workloadNames {
		a, err := newWorkload(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := newWorkload(name, 7)
		c, _ := newWorkload(name, 8)
		if a.digest != b.digest {
			t.Errorf("%s: same seed gave digests %s and %s", name, a.digest, b.digest)
		}
		if a.digest == c.digest {
			t.Errorf("%s: seeds 7 and 8 gave the same digest", name)
		}
	}
}

// TestEcoScript pins the stream shape the correctness checks rely on: a
// repeat always re-sends the design right before it, every edit is a
// design the stream has not sent before, and one edit in four is a job.
func TestEcoScript(t *testing.T) {
	w, err := newWorkload("eco", 3)
	if err != nil {
		t.Fatal(err)
	}
	stream := append(append([]request(nil), w.prefix...), w.timed...)
	sent := map[int]bool{}
	var edits, jobs, hits int
	for i, r := range stream {
		switch r.expect {
		case "hit":
			hits++
			if r.kind != stream[i-1].kind || r.path != "/route" {
				t.Fatalf("request %d: a repeat must re-send the previous design over /route", i)
			}
		case "incremental", "cold":
			if sent[r.kind] {
				t.Fatalf("request %d: edit re-sends design %d", i, r.kind)
			}
			edits++
			if r.path == "/jobs" {
				jobs++
			}
		default:
			t.Fatalf("request %d: unexpected script outcome %q", i, r.expect)
		}
		sent[r.kind] = true
	}
	if hits*4 < len(stream)-ecoEpisode || jobs*4 < edits-4 || jobs*4 > edits+4 {
		t.Errorf("mix: %d requests, %d hits, %d edits, %d jobs", len(stream), hits, edits, jobs)
	}
	if w.timed[0].expect != "incremental" || w.warmup[0].kind != stream[0].kind {
		t.Error("the timed stream must start with an edit of the warm-up's base design")
	}
}

// TestBenchmarkFile checks BENCHMARK.json against the metric sets the
// benchmark prints, and every name against the allowed alphabet.
func TestBenchmarkFile(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			metricSpec
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	var names []string
	for i, w := range bench.Workloads {
		if i >= len(workloadNames) || w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, the benchmark runs %v", i, w.Name, workloadNames)
		}
		names = append(names, w.Name)
	}
	if len(bench.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the benchmark prints %d", len(bench.EndToEnd), len(endToEnd))
	}
	for i, m := range bench.EndToEnd {
		if m.metricSpec != endToEnd[i] {
			t.Errorf("end_to_end[%d] = %+v, benchmark prints %+v", i, m.metricSpec, endToEnd[i])
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Name != "setup_s" && m.Bound >= bench.EndToEnd[0].Bound) {
			t.Errorf("%s: bound %v outside (0, setup_s bound)", m.Name, m.Bound)
		}
		names = append(names, m.Name)
	}
	layers := perLayer()
	if len(bench.PerLayer) != len(layers) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark prints %d", len(bench.PerLayer), len(layers))
	}
	for i, m := range bench.PerLayer {
		if m != layers[i] {
			t.Errorf("per_layer[%d] = %+v, benchmark prints %+v", i, m, layers[i])
		}
		names = append(names, m.Name)
	}
	seen := map[string]bool{}
	for _, n := range names {
		if !valid.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
}
