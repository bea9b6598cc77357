package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// newManager builds a started manager with test-friendly timings and the
// given runner, cleaning it up with the test.
func newManager(t *testing.T, store Store, run Runner) *Manager {
	t.Helper()
	m := New(Config{
		Store:       store,
		Run:         run,
		Workers:     2,
		MaxAttempts: 3,
		Backoff:     time.Millisecond,
		MaxBackoff:  5 * time.Millisecond,
	})
	m.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = m.Drain(ctx)
	})
	return m
}

// waitState polls until the job reaches the state or the test deadline.
func waitState(t *testing.T, m *Manager, id string, want State) View {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		v, err := m.Get(context.Background(), id)
		if err != nil {
			t.Fatalf("Get(%s): %v", id, err)
		}
		if v.State == want {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s (want %s): %+v", id, v.State, want, v)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func okRunner(result string) Runner {
	return func(ctx context.Context, spec Spec, rec *obs.Recorder, attempt int) (json.RawMessage, error) {
		return json.RawMessage(result), nil
	}
}

// slowSucceedStore holds each SUCCEEDED append for 50 ms, so a watcher
// sees the job succeed well before the worker that finished it moves on.
type slowSucceedStore struct{ *MemStore }

func (s slowSucceedStore) Append(ctx context.Context, rec Record) error {
	if rec.State == Succeeded {
		time.Sleep(50 * time.Millisecond)
	}
	return s.MemStore.Append(ctx, rec)
}

func TestSubmitRunsToSuccess(t *testing.T) {
	store := NewMemStore()
	m := newManager(t, slowSucceedStore{store}, okRunner(`{"ok":true}`))
	v, existed, err := m.Submit(context.Background(), Spec{Design: json.RawMessage(`{}`)}, "")
	if err != nil || existed {
		t.Fatalf("Submit = %+v existed=%v err=%v", v, existed, err)
	}
	if v.State != Pending || v.Attempts != 0 {
		t.Errorf("initial view = %+v", v)
	}
	got := waitState(t, m, v.ID, Succeeded)
	if got.Attempts != 1 || string(got.Result) != `{"ok":true}` || got.Error != "" {
		t.Errorf("final view = %+v", got)
	}
	// The counter is read while the SUCCEEDED append is still sleeping.
	st := m.StatsSnapshot()
	if st.Counters["jobs.submitted"] != 1 || st.Counters["jobs.succeeded"] != 1 {
		t.Errorf("counters = %+v", st.Counters)
	}
	// Journal, once the worker is done: submit PENDING, RUNNING, SUCCEEDED.
	if err := m.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if store.Len() != 3 {
		t.Errorf("journal has %d records, want 3", store.Len())
	}
}

func TestIdempotencyKeyDedupes(t *testing.T) {
	var runs atomic.Int64
	m := newManager(t, NewMemStore(), func(ctx context.Context, spec Spec, rec *obs.Recorder, attempt int) (json.RawMessage, error) {
		runs.Add(1)
		return json.RawMessage(`{}`), nil
	})
	v1, existed, err := m.Submit(context.Background(), Spec{Design: json.RawMessage(`{}`)}, "key-1")
	if err != nil || existed {
		t.Fatal(err)
	}
	v2, existed, err := m.Submit(context.Background(), Spec{Design: json.RawMessage(`{}`)}, "key-1")
	if err != nil || !existed {
		t.Fatalf("repeat submit: existed=%v err=%v", existed, err)
	}
	if v1.ID != v2.ID {
		t.Errorf("dedup returned different IDs: %s vs %s", v1.ID, v2.ID)
	}
	waitState(t, m, v1.ID, Succeeded)
	if n := runs.Load(); n != 1 {
		t.Errorf("runner executed %d times, want 1", n)
	}
	if c := m.StatsSnapshot().Counters["jobs.dedup"]; c != 1 {
		t.Errorf("jobs.dedup = %d, want 1", c)
	}
}

func TestRetryWithBackoffThenSuccess(t *testing.T) {
	var runs atomic.Int64
	m := newManager(t, NewMemStore(), func(ctx context.Context, spec Spec, rec *obs.Recorder, attempt int) (json.RawMessage, error) {
		if runs.Add(1) < 3 {
			return nil, fmt.Errorf("transient failure %d", attempt)
		}
		return json.RawMessage(`{"ok":1}`), nil
	})
	v, _, err := m.Submit(context.Background(), Spec{Design: json.RawMessage(`{}`)}, "")
	if err != nil {
		t.Fatal(err)
	}
	got := waitState(t, m, v.ID, Succeeded)
	if got.Attempts != 3 {
		t.Errorf("Attempts = %d, want 3", got.Attempts)
	}
	if c := m.StatsSnapshot().Counters["jobs.retries"]; c != 2 {
		t.Errorf("jobs.retries = %d, want 2", c)
	}
}

func TestRetryBudgetExhaustedFails(t *testing.T) {
	m := newManager(t, NewMemStore(), func(ctx context.Context, spec Spec, rec *obs.Recorder, attempt int) (json.RawMessage, error) {
		return nil, errors.New("always down")
	})
	v, _, err := m.Submit(context.Background(), Spec{Design: json.RawMessage(`{}`)}, "")
	if err != nil {
		t.Fatal(err)
	}
	got := waitState(t, m, v.ID, Failed)
	if got.Attempts != 3 {
		t.Errorf("Attempts = %d, want 3 (the full budget)", got.Attempts)
	}
	if got.Error == "" || got.Result != nil {
		t.Errorf("failed view = %+v", got)
	}
}

func TestTerminalErrorSkipsRetries(t *testing.T) {
	var runs atomic.Int64
	m := newManager(t, NewMemStore(), func(ctx context.Context, spec Spec, rec *obs.Recorder, attempt int) (json.RawMessage, error) {
		runs.Add(1)
		return nil, Terminal(errors.New("design is garbage"))
	})
	v, _, err := m.Submit(context.Background(), Spec{Design: json.RawMessage(`{}`)}, "")
	if err != nil {
		t.Fatal(err)
	}
	got := waitState(t, m, v.ID, Failed)
	if got.Attempts != 1 || runs.Load() != 1 {
		t.Errorf("terminal error retried: attempts=%d runs=%d", got.Attempts, runs.Load())
	}
}

func TestPanicInRunnerIsRetryable(t *testing.T) {
	var runs atomic.Int64
	m := newManager(t, NewMemStore(), func(ctx context.Context, spec Spec, rec *obs.Recorder, attempt int) (json.RawMessage, error) {
		if runs.Add(1) == 1 {
			panic("solver exploded")
		}
		return json.RawMessage(`{}`), nil
	})
	v, _, err := m.Submit(context.Background(), Spec{Design: json.RawMessage(`{}`)}, "")
	if err != nil {
		t.Fatal(err)
	}
	got := waitState(t, m, v.ID, Succeeded)
	if got.Attempts != 2 {
		t.Errorf("Attempts = %d, want 2 (panic then success)", got.Attempts)
	}
}

func TestCancelPendingAndRunning(t *testing.T) {
	release := make(chan struct{})
	started := make(chan string, 8)
	m := New(Config{
		Store:   NewMemStore(),
		Workers: 1, // one worker so the second job stays PENDING
		Backoff: time.Millisecond,
		Run: func(ctx context.Context, spec Spec, rec *obs.Recorder, attempt int) (json.RawMessage, error) {
			started <- "go"
			select {
			case <-release:
				return json.RawMessage(`{}`), nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
	})
	m.Start()
	defer close(release)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = m.Drain(ctx)
	})

	ctx := context.Background()
	running, _, err := m.Submit(ctx, Spec{Design: json.RawMessage(`{}`)}, "")
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, _, err := m.Submit(ctx, Spec{Design: json.RawMessage(`{}`)}, "")
	if err != nil {
		t.Fatal(err)
	}

	// The queued job cancels in place, without ever running.
	if v, err := m.Cancel(ctx, queued.ID); err != nil || v.State != Canceled {
		t.Fatalf("cancel queued: %+v, %v", v, err)
	}
	// The running job cancels once its attempt unwinds, and is not
	// retried.
	if _, err := m.Cancel(ctx, running.ID); err != nil {
		t.Fatal(err)
	}
	got := waitState(t, m, running.ID, Canceled)
	if got.Attempts != 1 {
		t.Errorf("canceled running job retried: %+v", got)
	}
	// Canceling a terminal job is a no-op.
	if v, err := m.Cancel(ctx, running.ID); err != nil || v.State != Canceled {
		t.Errorf("re-cancel: %+v, %v", v, err)
	}
	if _, err := m.Cancel(ctx, "no-such-id"); !errors.Is(err, ErrNotFound) {
		t.Errorf("cancel unknown = %v, want ErrNotFound", err)
	}
}

func TestBeginDrainStopsPendingPickup(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	store := NewMemStore()
	m := New(Config{
		Store:   store,
		Workers: 1,
		Run: func(ctx context.Context, spec Spec, rec *obs.Recorder, attempt int) (json.RawMessage, error) {
			started <- struct{}{}
			select {
			case <-release:
				return json.RawMessage(`{}`), nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
	})
	m.Start()

	ctx := context.Background()
	first, _, err := m.Submit(ctx, Spec{Design: json.RawMessage(`{}`)}, "")
	if err != nil {
		t.Fatal(err)
	}
	<-started
	second, _, err := m.Submit(ctx, Spec{Design: json.RawMessage(`{}`)}, "")
	if err != nil {
		t.Fatal(err)
	}

	m.BeginDrain()
	close(release) // the in-flight attempt finishes...
	waitState(t, m, first.ID, Succeeded)

	// ...but the pending job must NOT be picked up: drain means finish
	// in-flight, persist the rest.
	time.Sleep(20 * time.Millisecond)
	if v, _ := m.Get(ctx, second.ID); v.State != Pending || v.Attempts != 0 {
		t.Errorf("drain picked up pending work: %+v", v)
	}
	// New submits are refused outright.
	if _, _, err := m.Submit(ctx, Spec{Design: json.RawMessage(`{}`)}, ""); !errors.Is(err, ErrDraining) {
		t.Errorf("submit while draining = %v, want ErrDraining", err)
	}
	dctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := m.Drain(dctx); err != nil {
		t.Errorf("Drain = %v", err)
	}
}

func TestWatchDeliversTransitions(t *testing.T) {
	// The attempt waits for the subscription: a job that finished first
	// would publish its terminal event to no one.
	subscribed := make(chan struct{})
	m := newManager(t, NewMemStore(), func(ctx context.Context, spec Spec, rec *obs.Recorder, attempt int) (json.RawMessage, error) {
		select {
		case <-subscribed:
			return json.RawMessage(`{}`), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	v, _, err := m.Submit(context.Background(), Spec{Design: json.RawMessage(`{}`)}, "")
	if err != nil {
		t.Fatal(err)
	}
	ch, stop, err := m.Watch(context.Background(), v.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	close(subscribed)
	deadline := time.After(10 * time.Second)
	var states []State
	for {
		select {
		case got := <-ch:
			states = append(states, got.State)
			if got.State.Terminal() {
				if got.State != Succeeded {
					t.Fatalf("terminal state = %s, want SUCCEEDED (saw %v)", got.State, states)
				}
				return
			}
		case <-deadline:
			t.Fatalf("no terminal event (saw %v)", states)
		}
	}
}

func TestLiveReportOnlyWhileRunning(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	m := newManager(t, NewMemStore(), func(ctx context.Context, spec Spec, rec *obs.Recorder, attempt int) (json.RawMessage, error) {
		rec.Add("test.progress", 7)
		close(started)
		select {
		case <-release:
		case <-ctx.Done():
		}
		return json.RawMessage(`{}`), nil
	})
	v, _, err := m.Submit(context.Background(), Spec{Design: json.RawMessage(`{}`)}, "")
	if err != nil {
		t.Fatal(err)
	}
	<-started
	rep, ok := m.LiveReport(v.ID)
	if !ok || rep.Counters["test.progress"] != 7 {
		t.Errorf("live report = %+v ok=%v", rep.Counters, ok)
	}
	close(release)
	waitState(t, m, v.ID, Succeeded)
	if _, ok := m.LiveReport(v.ID); ok {
		t.Error("LiveReport still ok after the job finished")
	}
}

func TestBackoffGrowsAndCaps(t *testing.T) {
	m := New(Config{
		Store:       NewMemStore(),
		Run:         okRunner(`{}`),
		Backoff:     100 * time.Millisecond,
		MaxBackoff:  400 * time.Millisecond,
		MaxAttempts: 10,
	})
	for attempt, want := range map[int]time.Duration{
		1: 100 * time.Millisecond,
		2: 200 * time.Millisecond,
		3: 400 * time.Millisecond,
		9: 400 * time.Millisecond, // capped
	} {
		d := m.backoff(attempt)
		// ±25% jitter around the nominal value.
		if d < want*3/4 || d > want*5/4 {
			t.Errorf("backoff(%d) = %s, want %s ±25%%", attempt, d, want)
		}
	}
}

func TestStatsSnapshot(t *testing.T) {
	m := newManager(t, NewMemStore(), okRunner(`{}`))
	if st := m.StatsSnapshot(); !st.Ready && st.Jobs != 0 {
		// Ready may race the Start goroutine; just exercise the call.
		t.Logf("early stats: %+v", st)
	}
	v, _, err := m.Submit(context.Background(), Spec{Design: json.RawMessage(`{}`)}, "")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, v.ID, Succeeded)
	st := m.StatsSnapshot()
	if !st.Ready || st.Draining || st.Jobs != 1 || st.Running != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestGetUnknownJob(t *testing.T) {
	m := newManager(t, NewMemStore(), okRunner(`{}`))
	if _, err := m.Get(context.Background(), "nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get unknown = %v, want ErrNotFound", err)
	}
}

func TestTerminalHelper(t *testing.T) {
	base := errors.New("root cause")
	if !IsTerminal(Terminal(base)) {
		t.Error("Terminal not detected")
	}
	if IsTerminal(base) {
		t.Error("plain error reported terminal")
	}
	if IsTerminal(nil) || Terminal(nil) != nil {
		t.Error("nil mishandled")
	}
	// Terminal wrapping is transparent to errors.Is and survives fmt
	// wrapping.
	wrapped := fmt.Errorf("attempt 2: %w", Terminal(base))
	if !IsTerminal(wrapped) || !errors.Is(wrapped, base) {
		t.Errorf("wrapped terminal lost: IsTerminal=%v Is=%v", IsTerminal(wrapped), errors.Is(wrapped, base))
	}
}
