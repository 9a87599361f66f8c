// Package ok threads contexts the sanctioned way: roots are minted
// only where no caller context exists, and deliberate detaches carry
// the justification in a suppression.
package ok

import "context"

// newRoot has no context parameter: it IS the root of a tree (a main
// loop, a test, a background daemon), so Background is correct.
func newRoot() context.Context {
	return context.Background()
}

func threaded(ctx context.Context, run func(context.Context) error) error {
	child, cancel := context.WithCancel(ctx)
	defer cancel()
	return run(child)
}

func detached(ctx context.Context, run func(context.Context) error) error {
	// The evaluation outlives any single caller by design; its
	// lifetime is managed by the flight's own cancel.
	execCtx := context.Background() //phantomvet:ignore ctxflow flight outlives individual waiters
	return run(execCtx)
}

// job is a signature, not a function: its unnamed context parameter
// discards nothing.
type job func(context.Context, int) error

// sweep hands every job the context it was given.
func sweep(ctx context.Context, n int, j job) error {
	for i := 0; i < n; i++ {
		if err := j(ctx, i); err != nil {
			return err
		}
	}
	return nil
}

func bound(ctx context.Context) error {
	return sweep(ctx, 2, func(ctx context.Context, i int) error {
		return ctx.Err()
	})
}
