package telemetry

import (
	"context"
	"sync"
	"sync/atomic"
)

// Sink receives ingested record batches. *Store is the embedded sink;
// remote pushers go through HTTP instead (see PushScenario).
type Sink interface {
	Ingest(recs []Record) error
}

// batchMax bounds how many buffered records one Ingest call drains.
const batchMax = 64

// Client is the bounded, non-blocking producer side of the lake: Push
// enqueues a record and returns immediately — when the buffer is full
// (the sink is slow or stalled) the record is dropped and counted, never
// awaited. The solve path must not pay for telemetry.
type Client struct {
	sink Sink
	ch   chan Record
	quit chan struct{}
	wg   sync.WaitGroup

	closed  atomic.Bool
	pushed  atomic.Int64
	dropped atomic.Int64
	ingErrs atomic.Int64
	logf    func(format string, args ...any)
}

// NewClient starts a client draining into sink with the given buffer
// (default 256 when <= 0). logf receives ingest failures; nil discards.
func NewClient(sink Sink, buffer int, logf func(format string, args ...any)) *Client {
	if buffer <= 0 {
		buffer = 256
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	c := &Client{
		sink: sink,
		ch:   make(chan Record, buffer),
		quit: make(chan struct{}),
		logf: logf,
	}
	c.wg.Add(1)
	go c.drain()
	return c
}

// Push enqueues one record. It never blocks: a full buffer or a closed
// client drops the record, increments the drop counter and returns false.
func (c *Client) Push(rec Record) bool {
	if c.closed.Load() {
		c.dropped.Add(1)
		return false
	}
	select {
	case c.ch <- rec:
		c.pushed.Add(1)
		return true
	default:
		c.dropped.Add(1)
		return false
	}
}

// drain batches buffered records into the sink until Close.
func (c *Client) drain() {
	defer c.wg.Done()
	for {
		select {
		case rec := <-c.ch:
			c.flushBatch(rec)
		case <-c.quit:
			// Final sweep: everything already buffered still lands.
			for {
				select {
				case rec := <-c.ch:
					c.flushBatch(rec)
				default:
					return
				}
			}
		}
	}
}

// flushBatch ingests first plus up to batchMax-1 more already-buffered
// records in one sink call (one fsync per batch instead of per record).
func (c *Client) flushBatch(first Record) {
	batch := make([]Record, 1, batchMax)
	batch[0] = first
	for len(batch) < batchMax {
		select {
		case rec := <-c.ch:
			batch = append(batch, rec)
		default:
			goto full
		}
	}
full:
	if err := c.sink.Ingest(batch); err != nil {
		// Ingest failures are counted and logged, never retried: the lake
		// is best-effort downstream of the solve path, and a wedged sink
		// must not accumulate unbounded retry state.
		c.ingErrs.Add(int64(len(batch)))
		c.logf("telemetry: ingest failed, %d record(s) lost: %v", len(batch), err)
	}
}

// Close stops accepting pushes, flushes the buffer into the sink, and
// waits for the drain goroutine — bounded by ctx. Idempotent.
func (c *Client) Close(ctx context.Context) error {
	if c.closed.CompareAndSwap(false, true) {
		close(c.quit)
	}
	done := make(chan struct{})
	go func() {
		c.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// ClientStats is a point-in-time snapshot of the producer counters.
type ClientStats struct {
	// Pushed counts records accepted into the buffer; Dropped counts
	// records discarded by backpressure or a closed client; IngestErrors
	// counts records lost to sink failures.
	Pushed       int64 `json:"pushed"`
	Dropped      int64 `json:"dropped"`
	IngestErrors int64 `json:"ingest_errors"`
}

// Stats snapshots the client counters.
func (c *Client) Stats() ClientStats {
	return ClientStats{
		Pushed:       c.pushed.Load(),
		Dropped:      c.dropped.Load(),
		IngestErrors: c.ingErrs.Load(),
	}
}

// Dropped returns the backpressure-drop count.
func (c *Client) Dropped() int64 { return c.dropped.Load() }
