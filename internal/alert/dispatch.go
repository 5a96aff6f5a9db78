package alert

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// sinkEntry is one sink plus its delivery-side books.
type sinkEntry struct {
	sink      Sink
	delivered atomic.Int64
	errors    atomic.Int64
}

// dispatcher decouples the scoring goroutines from sink I/O: transitions
// land in a bounded channel (enqueue never blocks — a full queue is the
// caller's drop signal) and a single worker goroutine delivers them to
// every sink in order. Close is exactly-once: the queue closes under the
// same lock enqueue holds (no send-on-closed race), the worker drains
// everything already queued, and only then do the sinks close.
type dispatcher struct {
	ch        chan Notification
	sinks     []*sinkEntry
	timeout   time.Duration
	processed atomic.Int64 // notifications fully handled by the worker
	depth     atomic.Int64 // notifications queued or in delivery

	mu          sync.Mutex
	closed      bool  // guarded by mu
	sinksClosed bool  // guarded by mu
	closeErr    error // guarded by mu
	done        chan struct{}
}

func newDispatcher(queueLen int, sinks []Sink, timeout time.Duration) *dispatcher {
	d := &dispatcher{
		ch:      make(chan Notification, queueLen),
		timeout: timeout,
		done:    make(chan struct{}),
	}
	for _, s := range sinks {
		d.sinks = append(d.sinks, &sinkEntry{sink: s})
	}
	go d.run()
	return d
}

// enqueue offers one notification; false means the queue is full or the
// dispatcher is closed (the caller counts the drop). Never blocks.
func (d *dispatcher) enqueue(n Notification) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return false
	}
	select {
	case d.ch <- n:
		d.depth.Add(1)
		return true
	default:
		return false
	}
}

func (d *dispatcher) run() {
	defer close(d.done)
	for n := range d.ch {
		d.deliver(n)
		d.depth.Add(-1)
		d.processed.Add(1)
	}
}

func (d *dispatcher) deliver(n Notification) {
	for _, e := range d.sinks {
		ctx, cancel := context.WithTimeout(context.Background(), d.timeout)
		err := e.sink.Deliver(ctx, n)
		cancel()
		if err != nil {
			e.errors.Add(1)
		} else {
			e.delivered.Add(1)
		}
	}
}

// Close shuts the dispatcher down exactly once: no further enqueues are
// admitted, the worker drains the already-queued notifications, then the
// sinks close. Safe to call concurrently and repeatedly; every call
// returns the same first sink-close error.
func (d *dispatcher) Close() error {
	d.mu.Lock()
	if !d.closed {
		d.closed = true
		close(d.ch)
	}
	d.mu.Unlock()
	<-d.done // wait for the drain — every caller returns after it completes
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.sinksClosed {
		d.sinksClosed = true
		for _, e := range d.sinks {
			if err := e.sink.Close(); err != nil && d.closeErr == nil {
				d.closeErr = err
			}
		}
	}
	return d.closeErr
}
