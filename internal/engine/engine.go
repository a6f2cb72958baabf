// Package engine is the shared execution substrate of the reproduction.
//
// Every layer of the pipeline is embarrassingly parallel — thousands of
// independent SPICE transients during characterisation, per-gate corner
// evaluation inside one STA level, per-fault ATPG runs — and before this
// package each layer grew its own ad-hoc goroutine fan-out (or none at
// all). The engine centralises that machinery:
//
//   - Pool: a bounded worker pool with context cancellation, panic
//     recovery and fail-fast error aggregation (errgroup-style, stdlib
//     only);
//   - Run: indexed fan-out over N independent jobs with deterministic
//     result placement — job i writes slot i, so a parallel run produces
//     byte-identical artefacts to a serial one;
//   - Metrics: a process-wide instrumentation sink of atomic counters
//     and wall-clock timers that every layer can feed (SPICE Newton
//     iterations, transient steps, characterisation jobs, STA arcs, ITR
//     implications, ATPG backtracks, ...).
//
// Consumers accept an optional *Metrics and a context.Context in their
// Options; both are nil-safe, so instrumentation and cancellation cost
// nothing when unused.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// ErrPoolClosed is returned by Pool.Go when the pool no longer accepts
// jobs: after Close or Wait, or once the pool context is cancelled. A
// typed sentinel lets long-lived submitters (the service daemon's job
// queue) distinguish "we are shutting down" from load shedding or a job
// failure.
var ErrPoolClosed = errors.New("engine: pool closed")

// PanicError is the error a recovered worker panic is converted into. It
// carries the recovered value and the goroutine stack at the point of the
// panic, so supervisors (the service daemon's request path) can map crashes
// to 500-style responses without string matching.
type PanicError struct {
	// Value is the value passed to panic().
	Value any
	// Stack is the formatted goroutine stack captured at recovery.
	Stack []byte
}

// Error keeps the historical "engine: worker panic" message shape.
func (e *PanicError) Error() string {
	return fmt.Sprintf("engine: worker panic: %v\n%s", e.Value, e.Stack)
}

// Workers normalises a job-count setting: n <= 0 selects GOMAXPROCS.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Pool runs submitted jobs on at most a fixed number of goroutines.
//
// The first job error (or panic, converted to an error) cancels the pool
// context; jobs submitted afterwards are rejected with ErrPoolClosed. Wait
// returns the first error observed. A Pool must not be reused after Wait
// (Go reports ErrPoolClosed once Wait or Close has run).
type Pool struct {
	ctx    context.Context
	cancel context.CancelFunc
	sem    chan struct{}
	wg     sync.WaitGroup
	closed atomic.Bool

	mu  sync.Mutex
	err error
}

// NewPool creates a pool of the given width running under ctx. A nil ctx
// selects context.Background(); workers <= 0 selects GOMAXPROCS.
func NewPool(ctx context.Context, workers int) *Pool {
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, cancel := context.WithCancel(ctx)
	return &Pool{
		ctx:    ctx,
		cancel: cancel,
		sem:    make(chan struct{}, Workers(workers)),
	}
}

// Context returns the pool's context; jobs should pass it to blocking
// sub-operations so cancellation propagates.
func (p *Pool) Context() context.Context { return p.ctx }

// Go submits one job. The call blocks until a worker slot is free (or the
// pool is cancelled), bounding both concurrency and the goroutine count.
//
// Go reports ErrPoolClosed — without running the job — when the pool is
// already closed (Close or Wait) or its context cancelled at the entry
// check; in the cancelled case the returned error additionally wraps the
// context's error, and the cancellation is still recorded for Wait. A call
// that passes the entry check is ADMITTED: it runs even if Close lands
// while it is still waiting for a worker slot — the graceful-drain
// contract is that admitted jobs finish, not just already-running ones.
// (Cancelling the pool context still aborts waiters.) A nil return means
// the job was accepted and will run.
func (p *Pool) Go(job func(ctx context.Context) error) error {
	if p.closed.Load() {
		return ErrPoolClosed
	}
	if err := p.ctx.Err(); err != nil {
		p.fail(err)
		return fmt.Errorf("%w: %w", ErrPoolClosed, err)
	}
	select {
	case p.sem <- struct{}{}:
	case <-p.ctx.Done():
		p.fail(p.ctx.Err())
		return fmt.Errorf("%w: %w", ErrPoolClosed, p.ctx.Err())
	}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		defer func() { <-p.sem }()
		if p.ctx.Err() != nil {
			p.fail(p.ctx.Err())
			return
		}
		if err := protect(p.ctx, job); err != nil {
			p.fail(err)
		}
	}()
	return nil
}

// Close marks the pool as no longer accepting jobs: subsequent Go calls
// return ErrPoolClosed without running. Jobs already accepted keep running
// — including submissions that passed Go's entry check and are still
// waiting for a worker slot; Close does not cancel the pool context (use
// the parent context for that). Close is idempotent and safe to call
// concurrently with Go.
func (p *Pool) Close() { p.closed.Store(true) }

// fail records the first error and cancels the pool.
func (p *Pool) fail(err error) {
	if err == nil {
		return
	}
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.mu.Unlock()
	p.cancel()
}

// Wait blocks until every accepted job finished and returns the first
// error observed (nil when all jobs succeeded). Wait closes the pool, so
// later submissions fail with ErrPoolClosed rather than racing a finished
// fan-out.
func (p *Pool) Wait() error {
	p.closed.Store(true)
	p.wg.Wait()
	p.cancel()
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// protect runs the job and converts a panic into an error carrying the
// recovered value and stack, so one crashing worker fails the fan-out
// instead of killing the process.
func protect(ctx context.Context, job func(ctx context.Context) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return job(ctx)
}

// Safely runs fn and converts a panic into an error (same containment as the
// pool's per-job recovery). Fan-out callers wrap job bodies with it when they
// want to attach their own context (which cell, which pair) to a crash before
// the pool sees it — a bare pool-level recovery only knows the goroutine, not
// the work item.
func Safely(fn func() error) error {
	return protect(context.Background(), func(context.Context) error { return fn() })
}

// Run executes job(ctx, i) for every i in [0, n) on at most workers
// goroutines (workers <= 0 selects GOMAXPROCS; workers == 1 runs inline
// with no goroutines at all).
//
// The parallel path runs min(workers, n) goroutines — the caller's and
// min(workers, n)-1 started ones — that pull indices from a shared atomic
// counter until the range is exhausted, so the cost of a fan-out is a
// handful of goroutines however large n is; every job still runs under the
// pool's panic containment.
//
// Ordering is deterministic by construction: each job owns index i and
// writes only into its own result slot, so the assembled output is
// independent of scheduling. On failure Run cancels outstanding jobs and
// reports the lowest-indexed real job error it observed (never the
// cancellation noise of jobs stopped by someone else's failure).
func Run(ctx context.Context, workers, n int, job func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if Workers(workers) == 1 || n == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := protect(ctx, func(ctx context.Context) error { return job(ctx, i) }); err != nil {
				return err
			}
		}
		return nil
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	done := ctx.Done()
	var (
		next atomic.Int64
		wg   sync.WaitGroup
		mu   sync.Mutex
		// Lowest-indexed real job error, and lowest-indexed
		// cancellation error, observed so far.
		errAt, cancelAt = n, n
		jobErr, cancErr error
	)
	worker := func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			err := protect(ctx, func(ctx context.Context) error { return job(ctx, i) })
			if err == nil {
				continue
			}
			mu.Lock()
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				if i < cancelAt {
					cancelAt, cancErr = i, err
				}
			} else if i < errAt {
				errAt, jobErr = i, err
			}
			mu.Unlock()
			cancel()
		}
	}
	// The calling goroutine is one of the min(workers, n) pullers.
	w := min(Workers(workers), n)
	wg.Add(w)
	for k := 1; k < w; k++ {
		go worker()
	}
	worker()
	wg.Wait()
	switch {
	case jobErr != nil:
		return jobErr
	case cancErr != nil:
		return cancErr
	case next.Load() < int64(n):
		// The caller's context fired before every job was claimed.
		return ctx.Err()
	}
	return nil
}
