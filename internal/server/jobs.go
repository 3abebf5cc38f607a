package server

// The job subsystem: a bounded admission queue feeding a fixed worker
// pool. Every analysis request — cold submission, session create, session
// patch — becomes a job, so the daemon's concurrency and memory are
// bounded by configuration, not by how many sockets the OS accepts.
// Admission is fail-fast: a full queue rejects immediately (the HTTP layer
// maps that to 429 + Retry-After) instead of building an unbounded backlog
// whose requests would all miss their deadlines anyway.
//
// Drain semantics (graceful shutdown): after drain() begins, new
// submissions and jobs still waiting in the queue are rejected with
// errDraining (HTTP 503), while jobs a worker has already started run to
// completion. drain() returns when the last in-flight job finishes.

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"gator/internal/metrics"
)

// errBusy rejects a submission when the admission queue is full (→ 429).
var errBusy = errors.New("server: analysis queue is full")

// errDraining rejects work during graceful shutdown (→ 503).
var errDraining = errors.New("server: draining")

// panicError wraps a recovered panic from an isolated job (→ 500). The
// daemon stays up; only the offending request fails.
type panicError struct {
	val   any
	stack []byte
}

func (e *panicError) Error() string {
	return fmt.Sprintf("server: panic during analysis: %v\n%s", e.val, e.stack)
}

type job struct {
	ctx  context.Context
	fn   func()
	done chan struct{}
	err  error     // written before done closes
	enq  time.Time // admission time, for the queue-wait histogram
}

type jobRunner struct {
	queue   chan *job
	timeout time.Duration
	reg     *metrics.Registry
	// queueWait is the stage_duration_us{stage="queue"} histogram; nil
	// when telemetry is off (a nil histogram swallows observations).
	queueWait *metrics.Histogram

	mu       sync.Mutex
	draining bool

	wg sync.WaitGroup // worker goroutines
}

// newJobRunner starts workers goroutines consuming a queue of depth slots.
func newJobRunner(workers, depth int, timeout time.Duration, reg *metrics.Registry, queueWait *metrics.Histogram) *jobRunner {
	r := &jobRunner{
		queue:     make(chan *job, depth),
		timeout:   timeout,
		reg:       reg,
		queueWait: queueWait,
	}
	r.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go r.worker()
	}
	return r
}

func (r *jobRunner) worker() {
	defer r.wg.Done()
	for j := range r.queue {
		r.queueWait.Observe(time.Since(j.enq).Microseconds())
		switch {
		case r.isDraining():
			// Queued but never started: reject, per the drain contract.
			j.err = errDraining
			r.reg.Add("server.jobs.rejected_drain", 1)
		case j.ctx.Err() != nil:
			// The submitter stopped waiting (deadline or disconnect) while
			// the job sat in the queue; skip the wasted work.
			j.err = j.ctx.Err()
			r.reg.Add("server.jobs.expired_in_queue", 1)
		default:
			j.err = r.runIsolated(j.fn)
			r.reg.Add("server.jobs.completed", 1)
		}
		close(j.done)
	}
}

// runIsolated executes fn, converting a panic into an error so one bad
// request cannot take down the daemon.
func (r *jobRunner) runIsolated(fn func()) (err error) {
	defer func() {
		if p := recover(); p != nil {
			r.reg.Add("server.jobs.panics", 1)
			err = &panicError{val: p, stack: debug.Stack()}
		}
	}()
	fn()
	return nil
}

func (r *jobRunner) isDraining() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.draining
}

// submit enqueues a job without blocking; errBusy when the queue is full.
func (r *jobRunner) submit(j *job) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.draining {
		r.reg.Add("server.jobs.rejected_drain", 1)
		return errDraining
	}
	j.enq = time.Now()
	select {
	case r.queue <- j:
		r.reg.Add("server.jobs.admitted", 1)
		return nil
	default:
		r.reg.Add("server.jobs.rejected_busy", 1)
		return errBusy
	}
}

// do runs fn on a worker and waits for it to finish, up to the per-job
// deadline (and the caller's ctx). On deadline the job is abandoned: the
// worker still runs it to completion (the solver is not preemptible), but
// the caller gets context.DeadlineExceeded now. fn must therefore only
// touch state owned by the job (its own buffers), never the caller's
// response writer.
func (r *jobRunner) do(ctx context.Context, fn func()) error {
	if r.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.timeout)
		defer cancel()
	}
	j := &job{ctx: ctx, fn: fn, done: make(chan struct{})}
	if err := r.submit(j); err != nil {
		return err
	}
	select {
	case <-j.done:
		return j.err
	case <-ctx.Done():
		r.reg.Add("server.jobs.abandoned", 1)
		return ctx.Err()
	}
}

// drain stops admission, rejects everything still queued, and waits for
// in-flight jobs to finish.
func (r *jobRunner) drain() {
	r.mu.Lock()
	if r.draining {
		r.mu.Unlock()
		r.wg.Wait()
		return
	}
	r.draining = true
	close(r.queue) // safe: submit holds the same lock and checks draining first
	r.mu.Unlock()
	r.wg.Wait()
}
