// Package bad cuts the cancellation thread: fresh root contexts minted
// where a caller-provided context is already in scope, and caller
// contexts discarded by naming the parameter _.
package bad

import "context"

func handler(ctx context.Context, run func(context.Context) error) error {
	return run(context.Background()) // want "forks the cancellation tree"
}

func worker(ctx context.Context, jobs []func(context.Context)) {
	for _, job := range jobs {
		go func(j func(context.Context)) {
			// The closure has no ctx parameter of its own, but the
			// caller's ctx is still in scope — the fork is just as
			// silent.
			j(context.TODO()) // want "forks the cancellation tree"
		}(job)
	}
}

func deadline(ctx context.Context) (context.Context, context.CancelFunc) {
	return context.WithCancel(context.Background()) // want "forks the cancellation tree"
}

// A sweep hands every job its context; a job that names it _ runs the
// work it starts unbounded, whatever the caller cancels.
func sweep(n int, run func(n int, job func(context.Context, int) error) error) error {
	return run(n, func(_ context.Context, i int) error { // want "discards the caller's context"
		return nil
	})
}

func runner(ctx context.Context, jobs []func(context.Context) error) error {
	for _, job := range jobs {
		if err := job(ctx); err != nil {
			return err
		}
	}
	// A closure inside a function that has a context is checked too.
	each := func(_ context.Context, j func(context.Context) error) error { // want "discards the caller's context"
		return j(ctx)
	}
	return each(ctx, jobs[0])
}

func perArch(_ context.Context, arch string) string { // want "discards the caller's context"
	return arch
}
