// Package sweep is the parallel fan-out engine of the experiment
// harness. The paper's evaluation is a large sweep — eight
// microarchitectures times 10–100 reboots per table — and every run
// boots an independent simulated System whose randomness comes from its
// own arithmetically derived seed. That makes the (arch, run) job space
// embarrassingly parallel, with one obligation: results must come back
// in job-index order so a parallel sweep renders byte-identical tables
// to the sequential one.
//
// Run executes a job function over n indexes on a bounded worker pool.
// Jobs selects the pool size (default runtime.GOMAXPROCS(0)); Jobs == 1
// reproduces the sequential path exactly, including its execution
// order. The first job failure cancels the remaining jobs via context;
// a job that panics fails with a *PanicError instead of ending the
// process.
package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// Observer receives job-lifecycle callbacks from Run. Observers are
// purely observational — they see indexes, wall-clock durations and
// errors, never results — so they cannot change what a sweep computes;
// the telemetry package's SweepScope is the canonical implementation.
// Callbacks arrive concurrently from all workers and must be safe for
// concurrent use.
type Observer interface {
	// SweepStart fires once before any job, with the job count and the
	// resolved pool size.
	SweepStart(total, workers int)
	// JobStart fires when a worker picks job i off the queue.
	JobStart(job, worker int)
	// JobDone fires when a job returns; d is harness wall-clock time
	// and err is the job's error (including context cancellation for
	// jobs skipped after a failure).
	JobDone(job, worker int, d time.Duration, err error)
	// SweepEnd fires once after all workers drain.
	SweepEnd()
}

// Options tunes a sweep.
type Options struct {
	// Jobs is the worker-pool size. Zero or negative means
	// runtime.GOMAXPROCS(0). One runs the jobs sequentially in index
	// order.
	Jobs int
	// Observer, when non-nil, receives job-lifecycle callbacks. The
	// sweep's results and their order are identical with or without an
	// observer; only the callbacks (and their time.Now reads) differ.
	Observer Observer
}

// workers resolves the pool size for n jobs.
func (o Options) workers(n int) int {
	w := o.Jobs
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Run executes fn(ctx, i) for every i in [0, n) on a bounded worker
// pool and returns the n results in job-index order, so output built
// from them is identical whatever the pool size.
//
// The first error cancels the context handed to the remaining jobs;
// Run then reports the lowest-index non-cancellation error (or, if
// every failure is a cancellation, the first of those). On error the
// results are nil.
func Run[T any](ctx context.Context, n int, opts Options, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, ctx.Err()
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	obs := opts.Observer
	workers := opts.workers(n)
	if obs != nil {
		obs.SweepStart(n, workers)
		defer obs.SweepEnd()
	}
	results := make([]T, n)
	errs := make([]error, n)
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range jobs {
				var start time.Time
				if obs != nil {
					obs.JobStart(i, w)
					start = time.Now()
				}
				err := ctx.Err()
				if err == nil {
					var v T
					if v, err = call(ctx, i, fn); err == nil {
						results[i] = v
					} else {
						cancel()
					}
				}
				errs[i] = err
				if obs != nil {
					obs.JobDone(i, w, time.Since(start), err)
				}
			}
		}(w)
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	if err := firstError(errs); err != nil {
		return nil, err
	}
	return results, nil
}

// PanicError is the error of a sweep job that panicked: Run recovers
// the panic in the worker, so one bad job fails its sweep (and cancels
// the rest) like any other error instead of ending the process.
type PanicError struct {
	Job   int
	Value any
	// Stack is the panicking goroutine's stack, for a log. Error leaves
	// it out, so the message stays one line.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("sweep job %d panicked: %v", e.Job, e.Value)
}

// call runs job i, turning a panic into its *PanicError.
func call[T any](ctx context.Context, i int, fn func(ctx context.Context, i int) (T, error)) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Job: i, Value: r, Stack: debug.Stack()}
		}
	}()
	return fn(ctx, i)
}

// firstError picks the error Run reports: the lowest-index failure that
// is not a mere cancellation echo, falling back to the first
// cancellation if nothing else failed.
func firstError(errs []error) error {
	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if first == nil {
			first = err
		}
		if !errors.Is(err, context.Canceled) {
			return err
		}
	}
	return first
}
