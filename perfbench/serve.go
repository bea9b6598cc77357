package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/jobs"
	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/server"
	"repro/internal/telemetry"
)

// daemon is one in-process streakd: the real server.Server handler behind
// a loopback httptest listener, with the durable stores streakd opens for
// -jobs-dir, -telemetry-dir and -record-dir when the workload is durable.
type daemon struct {
	srv     *server.Server
	ts      *httptest.Server
	client  *http.Client
	wal     *jobs.WAL
	telem   *telemetry.Service
	capture *scenario.Capture
}

// Sub-directories of a durable daemon's state directory.
const (
	jobsDir    = "jobs"
	telemDir   = "telemetry"
	captureDir = "capture"
)

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "streakd: "+format+"\n", args...)
}

// startDaemon opens the stores under stateDir (durable workloads only),
// builds the server as streakd does and waits for /readyz to report 200,
// which for a durable daemon means the jobs WAL has been replayed.
func startDaemon(w *workload, stateDir string) (*daemon, error) {
	d := &daemon{}
	cfg := server.Config{
		MaxInflight:     4,
		Options:         w.opt,
		AuditConfigured: true,
		JobStore:        jobs.NewMemStore(),
		Logf:            logf,
	}
	if w.durable {
		var err error
		if d.wal, err = jobs.OpenWAL(filepath.Join(stateDir, jobsDir), logf); err != nil {
			return nil, err
		}
		cfg.JobStore = d.wal
		store, err := telemetry.OpenStore(telemetry.StoreConfig{
			Dir:          filepath.Join(stateDir, telemDir),
			SegmentBytes: 2 << 20,
			MaxSegments:  16,
			Logf:         logf,
		})
		if err != nil {
			d.close()
			return nil, err
		}
		d.telem = telemetry.NewService(store, 256, logf)
		cfg.Telemetry = d.telem
		if d.capture, err = scenario.OpenCapture(filepath.Join(stateDir, captureDir), 4096<<10, 8); err != nil {
			d.close()
			return nil, err
		}
		cfg.Recorder = d.capture
	}
	d.srv = server.New(cfg)
	d.ts = httptest.NewServer(d.srv.Handler())
	d.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := d.client.Get(d.ts.URL + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.close()
			return nil, fmt.Errorf("daemon not ready after 60s (last error %v)", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// close drains the server and closes every store, flushing the telemetry
// lake the way streakd does on SIGTERM.
func (d *daemon) close() error {
	var errs []error
	if d.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		errs = append(errs, d.srv.Drain(ctx))
		cancel()
	}
	if d.ts != nil {
		d.ts.Close()
	}
	if d.telem != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, d.telem.Close(ctx))
		cancel()
	}
	if d.wal != nil {
		errs = append(errs, d.wal.Close())
	}
	if d.capture != nil {
		errs = append(errs, d.capture.Close())
	}
	return errors.Join(errs...)
}

// result is one completed request as the client saw it.
type result struct {
	req     *request
	latency time.Duration
	resp    server.RouteResponse
	err     error // transport error or non-2xx status
}

// solved reports whether the request ran a solve (everything but a hit).
func (r *result) solved() bool { return r.resp.Cache != "hit" }

// do sends one request and waits for its routing: the /route response, or
// for /jobs the SSE "done" frame of the submitted job.
func (d *daemon) do(r *request) result {
	res := result{req: r}
	start := time.Now()
	if r.path == "/jobs" {
		res.err = d.job(r, &res.resp)
	} else {
		res.err = d.post(d.ts.URL+r.path+"?"+r.query, r.body, http.StatusOK, &res.resp)
	}
	res.latency = time.Since(start)
	return res
}

func (d *daemon) post(url string, body []byte, want int, v any) error {
	resp, err := d.client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, v)
}

// job submits r to POST /jobs and follows GET /jobs/{id}/events until the
// done frame, whose terminal snapshot carries the routing.
func (d *daemon) job(r *request, out *server.RouteResponse) error {
	var v jobs.View
	if err := d.post(d.ts.URL+"/jobs?"+r.query, r.body, http.StatusAccepted, &v); err != nil {
		return err
	}
	resp, err := d.client.Get(d.ts.URL + "/jobs/" + v.ID + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	done := false
	for sc.Scan() {
		line := sc.Text()
		if line == "event: done" {
			done = true
			continue
		}
		if data, ok := strings.CutPrefix(line, "data: "); ok && done {
			if err := json.Unmarshal([]byte(data), &v); err != nil {
				return err
			}
			if v.State != jobs.Succeeded {
				return fmt.Errorf("job %s ended %s: %s", v.ID, v.State, v.Error)
			}
			return json.Unmarshal(v.Result, out)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("job %s: event stream ended without a done frame", v.ID)
}

// serveAll sends requests one after another and fails on the first one
// that does not route; used for the untimed prefix and warm-up.
func (d *daemon) serveAll(reqs []request) error {
	for i := range reqs {
		if res := d.do(&reqs[i]); res.err != nil {
			return fmt.Errorf("%s request %d: %w", reqs[i].path, i, res.err)
		}
	}
	return nil
}

// drive runs the closed loop: clients goroutines each send their next
// request as soon as the previous one completes, in stream order, until
// dur has passed, at least minSolves solves completed and the number of
// requests sent is a multiple of cycle (or 4*dur has passed, or the
// stream is exhausted). Stopping on a whole round keeps every kind
// equally represented, so percentiles do not shift with the stop point.
func (d *daemon) drive(reqs []request, clients, cycle int, dur time.Duration, minSolves int) ([]result, time.Duration) {
	var next, solves atomic.Int64
	out := make([]result, len(reqs))
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Load()
				el := time.Since(start)
				if i >= int64(len(reqs)) || el >= 4*dur ||
					(el >= dur && solves.Load() >= int64(minSolves) && i%int64(cycle) == 0) {
					return
				}
				if !next.CompareAndSwap(i, i+1) {
					continue
				}
				out[i] = d.do(&reqs[i])
				if out[i].solved() {
					solves.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	n := min(int(next.Load()), len(reqs))
	return out[:n], elapsed
}

// sameRouting compares the evaluated rows of two routings, ignoring the
// design label (hits re-point it) and the solver wall clock.
func sameRouting(a, b metrics.Metrics) bool {
	a.Bench, b.Bench = "", ""
	a.Runtime, b.Runtime = 0, 0
	return a == b
}

// check names the first way a response falls short, or returns "" when it
// passes: the transport and status, the independent audit, a truncated or
// degraded solve, the solver it names, the cache outcome the stream
// script predicts, and its routing against the reference cold solve.
func check(r *result, ref map[int]metrics.Metrics) string {
	switch {
	case r.err != nil:
		return "status"
	case r.resp.AuditOK == nil || !*r.resp.AuditOK:
		return "audit"
	case r.resp.TimedOut:
		return "timed_out"
	case r.resp.Degraded:
		return "degraded"
	case r.resp.Solver != r.req.method.String():
		return "solver"
	case r.resp.Cache != r.req.expect && !(r.req.expect == "incremental" && r.resp.Cache == "cold-fallback"):
		return "cache"
	}
	want, ok := ref[r.req.kind]
	if !ok {
		return "no_reference"
	}
	if !sameRouting(r.resp.Metrics, want) {
		return "metrics"
	}
	return ""
}
