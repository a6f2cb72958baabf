package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunDeterministicOrdering: job i writes slot i, so the assembled
// result is identical no matter how many workers raced.
func TestRunDeterministicOrdering(t *testing.T) {
	const n = 200
	want := make([]int, n)
	for i := range want {
		want[i] = i * i
	}
	for _, workers := range []int{1, 2, 4, 8, 33} {
		got := make([]int, n)
		err := Run(context.Background(), workers, n, func(_ context.Context, i int) error {
			got[i] = i * i
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: slot %d = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

// TestPoolSaturation: with W workers, at most W jobs run concurrently even
// when many more are submitted, and all of them complete.
func TestPoolSaturation(t *testing.T) {
	const workers = 3
	const jobs = 40
	var cur, peak, done atomic.Int64
	p := NewPool(context.Background(), workers)
	for i := 0; i < jobs; i++ {
		p.Go(func(context.Context) error {
			c := cur.Add(1)
			for {
				pk := peak.Load()
				if c <= pk || peak.CompareAndSwap(pk, c) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			cur.Add(-1)
			done.Add(1)
			return nil
		})
	}
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	if done.Load() != jobs {
		t.Fatalf("completed %d of %d jobs", done.Load(), jobs)
	}
	if pk := peak.Load(); pk > workers {
		t.Fatalf("observed %d concurrent jobs, pool width is %d", pk, workers)
	}
}

// TestRunCancellationMidFanout: cancelling the context mid-run stops the
// fan-out early and surfaces the cancellation.
func TestRunCancellationMidFanout(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	const n = 1000
	err := Run(ctx, 2, n, func(ctx context.Context, i int) error {
		if started.Add(1) == 5 {
			cancel()
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(100 * time.Microsecond):
			return nil
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if s := started.Load(); s == n {
		t.Fatalf("all %d jobs started despite cancellation", n)
	}
}

// TestRunFailFast: the first failing job cancels the rest, and the
// reported error is the failing job's error, not cancellation noise.
func TestRunFailFast(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int64
	err := Run(context.Background(), 4, 500, func(ctx context.Context, i int) error {
		ran.Add(1)
		if i == 7 {
			return fmt.Errorf("job %d: %w", i, boom)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(200 * time.Microsecond):
			return nil
		}
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if r := ran.Load(); r == 500 {
		t.Fatal("fail-fast did not stop the fan-out")
	}
}

// TestRunPanicRecovery: a panicking worker becomes an error carrying the
// panic value instead of crashing the process.
func TestRunPanicRecovery(t *testing.T) {
	for _, workers := range []int{2, 4} {
		err := Run(context.Background(), workers, 16, func(_ context.Context, i int) error {
			if i == 3 {
				panic("kaboom")
			}
			return nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) || pe.Value != "kaboom" || len(pe.Stack) == 0 {
			t.Fatalf("workers=%d: err = %v, want a *PanicError carrying kaboom and its stack", workers, err)
		}
	}
	// The serial path must recover too.
	err := Run(context.Background(), 1, 4, func(_ context.Context, i int) error {
		panic(i)
	})
	if err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("serial err = %v, want panic error", err)
	}
}

// TestPoolGoAfterCancel: submissions after cancellation are dropped, and
// Wait still returns.
func TestPoolGoAfterCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := NewPool(ctx, 2)
	cancel()
	var ran atomic.Bool
	p.Go(func(context.Context) error {
		ran.Store(true)
		return nil
	})
	err := p.Wait()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran.Load() {
		t.Fatal("job ran after pool cancellation")
	}
}

// TestRunRealErrorPreferred: with several failing jobs the reported error
// is always one of the real job errors, never the cancellation noise of
// jobs stopped by someone else's failure.
func TestRunRealErrorPreferred(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		err := Run(context.Background(), 8, 64, func(_ context.Context, i int) error {
			if i%2 == 1 {
				return fmt.Errorf("job %d failed", i)
			}
			return nil
		})
		if err == nil {
			t.Fatal("expected an error")
		}
		if got := err.Error(); !strings.HasPrefix(got, "job ") || !strings.HasSuffix(got, " failed") {
			t.Fatalf("trial %d: err = %q, want a real job error", trial, got)
		}
	}
}

// TestWorkers covers the GOMAXPROCS defaulting.
func TestWorkers(t *testing.T) {
	if Workers(0) < 1 || Workers(-3) < 1 {
		t.Fatal("Workers must default to at least 1")
	}
	if Workers(7) != 7 {
		t.Fatal("Workers must pass positive values through")
	}
}

// TestRunNilContext: a nil context behaves like context.Background().
func TestRunNilContext(t *testing.T) {
	var sum atomic.Int64
	if err := Run(nil, 4, 10, func(_ context.Context, i int) error { //nolint:staticcheck
		sum.Add(int64(i))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if sum.Load() != 45 {
		t.Fatalf("sum = %d, want 45", sum.Load())
	}
}

// TestPoolConcurrentSubmitters: Go is safe to call from multiple
// goroutines (the ATPG campaign submits from its own workers).
func TestPoolConcurrentSubmitters(t *testing.T) {
	p := NewPool(context.Background(), 4)
	var wg sync.WaitGroup
	var total atomic.Int64
	for s := 0; s < 8; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 25; j++ {
				p.Go(func(context.Context) error {
					total.Add(1)
					return nil
				})
			}
		}()
	}
	wg.Wait()
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	if total.Load() != 200 {
		t.Fatalf("ran %d jobs, want 200", total.Load())
	}
}

// TestRunInFlightBound: the pulling workers never run more jobs at once
// than the pool width, and every index runs exactly once.
func TestRunInFlightBound(t *testing.T) {
	const n = 200
	var cur, peak atomic.Int64
	var ran [n]atomic.Int32
	err := Run(context.Background(), 2, n, func(_ context.Context, i int) error {
		c := cur.Add(1)
		for {
			pk := peak.Load()
			if c <= pk || peak.CompareAndSwap(pk, c) {
				break
			}
		}
		time.Sleep(50 * time.Microsecond)
		ran[i].Add(1)
		cur.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if pk := peak.Load(); pk > 2 {
		t.Fatalf("observed %d jobs in flight at workers=2", pk)
	}
	for i := range ran {
		if r := ran[i].Load(); r != 1 {
			t.Fatalf("job %d ran %d times", i, r)
		}
	}
}

// TestRunLowestIndexErrorWins: when several jobs fail, Run reports the
// lowest-indexed failure it observed, not the first in time.
func TestRunLowestIndexErrorWins(t *testing.T) {
	late := make(chan struct{})
	err := Run(context.Background(), 2, 64, func(_ context.Context, i int) error {
		switch i {
		case 5:
			<-late // fail only after job 37 has failed
			return fmt.Errorf("job %d failed", i)
		case 37:
			defer close(late)
			return fmt.Errorf("job %d failed", i)
		}
		return nil
	})
	if err == nil || err.Error() != "job 5 failed" {
		t.Fatalf("err = %v, want job 5's error", err)
	}
}
