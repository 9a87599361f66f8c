package sweep

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunIndexOrder(t *testing.T) {
	for _, jobs := range []int{0, 1, 2, 8, 64} {
		got, err := Run(context.Background(), 50, Options{Jobs: jobs},
			func(_ context.Context, i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("Jobs=%d: %v", jobs, err)
		}
		if len(got) != 50 {
			t.Fatalf("Jobs=%d: %d results", jobs, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("Jobs=%d: result[%d] = %d, want %d", jobs, i, v, i*i)
			}
		}
	}
}

func TestRunSingleWorkerIsSequential(t *testing.T) {
	var order []int
	_, err := Run(context.Background(), 20, Options{Jobs: 1},
		func(_ context.Context, i int) (struct{}, error) {
			order = append(order, i)
			return struct{}{}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("execution order %v not sequential", order)
		}
	}
}

func TestRunBoundsConcurrency(t *testing.T) {
	const jobs = 3
	var inFlight, peak atomic.Int64
	_, err := Run(context.Background(), 100, Options{Jobs: jobs},
		func(_ context.Context, i int) (struct{}, error) {
			n := inFlight.Add(1)
			defer inFlight.Add(-1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			runtime.Gosched()
			return struct{}{}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > jobs {
		t.Fatalf("observed %d concurrent jobs, want <= %d", p, jobs)
	}
}

func TestRunFirstErrorWinsAndCancels(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int64
	_, err := Run(context.Background(), 200, Options{Jobs: 4},
		func(ctx context.Context, i int) (int, error) {
			ran.Add(1)
			if i == 0 {
				return 0, fmt.Errorf("job %d: %w", i, boom)
			}
			<-ctx.Done() // parked until the job-0 failure cancels the sweep
			return i, nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if ran.Load() == 200 {
		t.Error("cancellation did not skip any queued job")
	}
}

// TestRunRecoversJobPanic: a panicking job fails its sweep with a
// *PanicError naming the job and the panic value, cancels the queued
// jobs like any other failure, and leaves the process running.
func TestRunRecoversJobPanic(t *testing.T) {
	for _, jobs := range []int{1, 4} {
		var ran atomic.Int64
		_, err := Run(context.Background(), 200, Options{Jobs: jobs},
			func(ctx context.Context, i int) (int, error) {
				ran.Add(1)
				if i == 5 {
					var none []int
					return none[i], nil // index out of range
				}
				if i > 5 {
					<-ctx.Done() // parked until the panic cancels the sweep
				}
				return i, nil
			})
		var pe *PanicError
		if !errors.As(err, &pe) || pe.Job != 5 {
			t.Fatalf("Jobs=%d: err = %v, want job 5's *PanicError", jobs, err)
		}
		if msg := err.Error(); strings.Contains(msg, "\n") || !strings.Contains(msg, "job 5") ||
			!strings.Contains(msg, "index out of range") {
			t.Errorf("Jobs=%d: Error() = %q, want one line naming the job and the panic value", jobs, msg)
		}
		if !strings.Contains(string(pe.Stack), "TestRunRecoversJobPanic") {
			t.Errorf("Jobs=%d: the stack does not show the panicking job:\n%s", jobs, pe.Stack)
		}
		if ran.Load() == 200 {
			t.Errorf("Jobs=%d: the panic did not cancel any queued job", jobs)
		}
	}
}

func TestRunReportsLowestIndexError(t *testing.T) {
	// With one worker every job runs in order, so index 3's error must be
	// the one reported even though index 10 would fail too.
	errA, errB := errors.New("a"), errors.New("b")
	_, err := Run(context.Background(), 20, Options{Jobs: 1},
		func(_ context.Context, i int) (int, error) {
			switch i {
			case 3:
				return 0, errA
			case 10:
				return 0, errB
			}
			return i, nil
		})
	if !errors.Is(err, errA) {
		t.Fatalf("err = %v, want %v", err, errA)
	}
}

func TestRunParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	var once sync.Once
	_, err := Run(ctx, 100, Options{Jobs: 2},
		func(ctx context.Context, i int) (int, error) {
			started.Add(1)
			once.Do(cancel)
			return i, ctx.Err()
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if started.Load() == 100 {
		t.Error("cancellation did not skip any queued job")
	}
}

func TestRunZeroJobsReturnsNil(t *testing.T) {
	got, err := Run(context.Background(), 0, Options{},
		func(_ context.Context, i int) (int, error) { t.Fatal("called"); return 0, nil })
	if err != nil || got != nil {
		t.Fatalf("got %v, %v", got, err)
	}
}

func TestWorkersResolution(t *testing.T) {
	cases := []struct{ jobs, n, want int }{
		{0, 1000, runtime.GOMAXPROCS(0)},
		{-3, 1000, runtime.GOMAXPROCS(0)},
		{1, 1000, 1},
		{8, 4, 4}, // never more workers than jobs
		{16, 16, 16},
	}
	for _, c := range cases {
		if got := (Options{Jobs: c.jobs}).workers(c.n); got != c.want {
			t.Errorf("Options{Jobs:%d}.workers(%d) = %d, want %d", c.jobs, c.n, got, c.want)
		}
	}
}

// recordingObserver collects callbacks for TestObserverCallbacks. All
// methods are mutex-guarded because workers call them concurrently.
type recordingObserver struct {
	mu         sync.Mutex
	startTotal int
	startPool  int
	started    map[int]int // job -> worker
	done       map[int]error
	ended      int
}

func (o *recordingObserver) SweepStart(total, workers int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.startTotal, o.startPool = total, workers
	o.started = make(map[int]int)
	o.done = make(map[int]error)
}

func (o *recordingObserver) JobStart(job, worker int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.started[job] = worker
}

func (o *recordingObserver) JobDone(job, worker int, d time.Duration, err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if w, ok := o.started[job]; !ok || w != worker {
		panic("JobDone without matching JobStart")
	}
	if d < 0 {
		panic("negative job duration")
	}
	o.done[job] = err
}

func (o *recordingObserver) SweepEnd() {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.ended++
}

func TestObserverCallbacks(t *testing.T) {
	obs := &recordingObserver{}
	got, err := Run(context.Background(), 20, Options{Jobs: 4, Observer: obs},
		func(_ context.Context, i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	if obs.startTotal != 20 || obs.startPool != 4 {
		t.Errorf("SweepStart(%d, %d), want (20, 4)", obs.startTotal, obs.startPool)
	}
	if len(obs.done) != 20 || obs.ended != 1 {
		t.Errorf("%d JobDone calls, %d SweepEnd calls", len(obs.done), obs.ended)
	}
	for job, err := range obs.done {
		if err != nil {
			t.Errorf("job %d reported error %v", job, err)
		}
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("results[%d] = %d: observer changed the sweep", i, v)
		}
	}
}

func TestObserverSeesFailures(t *testing.T) {
	obs := &recordingObserver{}
	boom := errors.New("boom")
	_, err := Run(context.Background(), 50, Options{Jobs: 2, Observer: obs},
		func(ctx context.Context, i int) (int, error) {
			if i == 3 {
				return 0, boom
			}
			return i, nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if !errors.Is(obs.done[3], boom) {
		t.Errorf("observer saw %v for the failing job", obs.done[3])
	}
	canceled := 0
	for _, jerr := range obs.done {
		if errors.Is(jerr, context.Canceled) {
			canceled++
		}
	}
	if canceled == 0 {
		t.Error("observer saw no cancellation echoes after the failure")
	}
	if obs.ended != 1 {
		t.Errorf("SweepEnd called %d times", obs.ended)
	}
}

// TestObserverIdenticalResults pins the Observer contract: the same
// sweep renders identical results with and without one attached.
func TestObserverIdenticalResults(t *testing.T) {
	fn := func(_ context.Context, i int) (int, error) { return 3*i + 1, nil }
	plain, err := Run(context.Background(), 32, Options{Jobs: 8}, fn)
	if err != nil {
		t.Fatal(err)
	}
	observed, err := Run(context.Background(), 32, Options{Jobs: 8, Observer: &recordingObserver{}}, fn)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, observed) {
		t.Error("observer changed sweep results")
	}
}
