package pool

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
)

// maxTracker records the high-water mark of a concurrent counter.
type maxTracker struct {
	cur atomic.Int64
	max atomic.Int64
}

func (t *maxTracker) enter() {
	c := t.cur.Add(1)
	for {
		m := t.max.Load()
		if c <= m || t.max.CompareAndSwap(m, c) {
			return
		}
	}
}

func (t *maxTracker) exit() { t.cur.Add(-1) }

// run adapts a context-free job to RunJobs.
func run(s *Shared, ctx context.Context, limit, n int, fn func(i int)) {
	s.RunJobs(ctx, limit, n, func(_ context.Context, i int) { fn(i) })
}

func TestSharedRunsEveryIndexOnce(t *testing.T) {
	s := NewShared(4)
	defer s.Close()
	const n = 1000
	counts := make([]atomic.Int32, n)
	run(s, nil, 0, n, func(i int) { counts[i].Add(1) })
	for i := range counts {
		if got := counts[i].Load(); got != 1 {
			t.Fatalf("index %d ran %d times", i, got)
		}
	}
}

func TestSharedBoundsConcurrencyAcrossSubmitters(t *testing.T) {
	const workers, submitters, jobs = 3, 8, 64
	s := NewShared(workers)
	defer s.Close()
	var running maxTracker
	var wg sync.WaitGroup
	for k := 0; k < submitters; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(s, nil, 0, jobs, func(int) {
				running.enter()
				defer running.exit()
				spin()
			})
		}()
	}
	wg.Wait()
	if got := running.max.Load(); got > workers {
		t.Fatalf("observed %d concurrent jobs, pool width %d", got, workers)
	}
}

func TestSharedHonorsPerSubmissionLimit(t *testing.T) {
	s := NewShared(8)
	defer s.Close()
	var running maxTracker
	run(s, nil, 2, 64, func(int) {
		running.enter()
		defer running.exit()
		spin()
	})
	if got := running.max.Load(); got > 2 {
		t.Fatalf("observed %d concurrent jobs, submission limit 2", got)
	}
}

func TestSharedLimitOneRunsInline(t *testing.T) {
	s := NewShared(4)
	defer s.Close()
	order := make([]int, 0, 10)
	run(s, nil, 1, 10, func(i int) { order = append(order, i) })
	for i, got := range order {
		if got != i {
			t.Fatalf("sequential order violated at %d: got %d", i, got)
		}
	}
	if len(order) != 10 {
		t.Fatalf("ran %d of 10 jobs", len(order))
	}
}

func TestSharedPropagatesPanicToItsSubmitter(t *testing.T) {
	s := NewShared(4)
	defer s.Close()
	// A healthy submission alongside the panicking one must complete
	// untouched.
	var okDone atomic.Int32
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		run(s, nil, 0, 100, func(int) { okDone.Add(1); spin() })
	}()
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Errorf("recovered %v, want boom", r)
			}
		}()
		run(s, nil, 0, 100, func(i int) {
			if i == 7 {
				panic("boom")
			}
			spin()
		})
	}()
	wg.Wait()
	if got := okDone.Load(); got != 100 {
		t.Fatalf("healthy submission ran %d of 100 jobs", got)
	}
}

func TestSharedStopsDispatchOnCancel(t *testing.T) {
	s := NewShared(2)
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int32
	run(s, ctx, 0, 1000, func(i int) {
		if ran.Add(1) == 4 {
			cancel()
		}
	})
	// In-flight jobs may finish after the cancel, but dispatch stops:
	// nowhere near the full 1000 run.
	if got := ran.Load(); got >= 1000 {
		t.Fatalf("cancellation did not stop dispatch (ran %d)", got)
	}
	// A pre-cancelled context runs nothing.
	ran.Store(0)
	run(s, ctx, 0, 100, func(int) { ran.Add(1) })
	if got := ran.Load(); got != 0 {
		t.Fatalf("pre-cancelled submission ran %d jobs", got)
	}
}

func TestSharedInterleavesConcurrentSubmitters(t *testing.T) {
	// With one worker, two submissions must still both finish: the
	// round-robin ring alternates their jobs instead of running the
	// first to completion while the second starves behind a lost
	// wakeup.
	s := NewShared(1)
	defer s.Close()
	var wg sync.WaitGroup
	var total atomic.Int32
	for k := 0; k < 2; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(s, nil, 2, 50, func(int) { total.Add(1) })
		}()
	}
	wg.Wait()
	if got := total.Load(); got != 100 {
		t.Fatalf("ran %d of 100 jobs", got)
	}
}

func TestSharedReentrantSubmissionDoesNotDeadlock(t *testing.T) {
	// A job (or a callback it invokes) that submits back to the pool it
	// runs on must not block a worker on work only workers can run. The
	// pool detects the re-entrant call and runs it inline on the
	// submitting worker, in index order; with every worker inside such
	// a job this would deadlock otherwise. (Width 2 keeps the outer
	// submission on the workers — width 1 would degenerate it to the
	// inline path.)
	s := NewShared(2)
	defer s.Close()
	var inner atomic.Int32
	run(s, nil, 0, 4, func(int) {
		var order []int
		run(s, nil, 2, 8, func(i int) { order = append(order, i); inner.Add(1) })
		for i, got := range order {
			if got != i {
				t.Errorf("re-entrant submission ran out of order: %v", order)
				return
			}
		}
	})
	if got := inner.Load(); got != 32 {
		t.Fatalf("nested submissions ran %d of 32 jobs", got)
	}
	st := s.Stats()
	if st.InlineSubmissions != 4 || st.Submissions != 1 || st.Jobs != 4 {
		t.Fatalf("re-entrant submissions must run inline: %+v", st)
	}
}

func TestSharedCloseIsIdempotentAndRejectsNewWork(t *testing.T) {
	s := NewShared(2)
	run(s, nil, 0, 10, func(int) {})
	s.Close()
	s.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("RunJobs on a closed pool did not panic")
		}
	}()
	run(s, nil, 0, 4, func(int) {})
}

// spin burns a little CPU so concurrent jobs overlap observably.
func spin() {
	x := 0
	for i := 0; i < 2000; i++ {
		x += i
	}
	_ = x
}

// TestSharedStats: the occupancy gauges and lifetime counters behind
// Engine.Stats. Mid-fan-out the pool must report non-zero in-flight
// jobs; once drained the gauges return to zero while the counters
// retain the totals.
func TestSharedStats(t *testing.T) {
	s := NewShared(2)
	defer s.Close()

	if st := s.Stats(); st.Workers != 2 || st.InFlight != 0 || st.Jobs != 0 || st.Closed {
		t.Fatalf("fresh pool stats: %+v", st)
	}

	release := make(chan struct{})
	started := make(chan struct{}, 4)
	var observed Stats
	done := make(chan struct{})
	go func() {
		defer close(done)
		run(s, context.Background(), 0, 4, func(i int) {
			started <- struct{}{}
			<-release
		})
	}()
	// Wait until both workers hold a job, then snapshot occupancy.
	<-started
	<-started
	observed = s.Stats()
	close(release)
	<-done

	if observed.InFlight == 0 {
		t.Fatalf("mid-fan-out occupancy was zero: %+v", observed)
	}
	if observed.ActiveSubmissions != 1 {
		t.Fatalf("mid-fan-out active submissions = %d, want 1 (%+v)", observed.ActiveSubmissions, observed)
	}

	st := s.Stats()
	if st.InFlight != 0 || st.ActiveSubmissions != 0 || st.QueueDepth != 0 {
		t.Fatalf("drained pool still shows occupancy: %+v", st)
	}
	if st.Jobs != 4 || st.Submissions != 1 {
		t.Fatalf("lifetime counters after one 4-job submission: %+v", st)
	}

	// Sequential submissions run inline and are tallied separately.
	run(s, context.Background(), 1, 3, func(int) {})
	st = s.Stats()
	if st.InlineSubmissions != 1 || st.Jobs != 4 {
		t.Fatalf("inline submission accounting: %+v", st)
	}

	s.Close()
	if st := s.Stats(); !st.Closed {
		t.Fatalf("closed pool not reported: %+v", st)
	}
}

func TestRunCoversEveryIndexOnce(t *testing.T) {
	for _, width := range []int{-1, 0, 1, 2, 8} {
		s := NewShared(width)
		for _, limit := range []int{-1, 0, 1, 2, 100} {
			const n = 57
			visits := make([]int32, n)
			run(s, nil, limit, n, func(i int) {
				atomic.AddInt32(&visits[i], 1)
			})
			for i, v := range visits {
				if v != 1 {
					t.Fatalf("width=%d limit=%d: index %d visited %d times", width, limit, i, v)
				}
			}
		}
		s.Close()
	}
}

func TestRunEmpty(t *testing.T) {
	s := NewShared(4)
	defer s.Close()
	called := false
	run(s, nil, 0, 0, func(int) { called = true })
	run(s, nil, 0, -3, func(int) { called = true })
	if called {
		t.Error("fn called for empty job set")
	}
	if st := s.Stats(); st.Submissions != 0 || st.InlineSubmissions != 0 {
		t.Errorf("empty job sets were counted as submissions: %+v", st)
	}
}

func TestRunRepanicsOnCaller(t *testing.T) {
	s := NewShared(4)
	defer s.Close()
	for _, limit := range []int{1, 4} {
		func() {
			defer func() {
				if r := recover(); r != "boom" {
					t.Errorf("limit=%d: recovered %v, want \"boom\"", limit, r)
				}
			}()
			run(s, nil, limit, 16, func(i int) {
				if i == 3 {
					panic("boom")
				}
			})
			t.Errorf("limit=%d: RunJobs returned instead of panicking", limit)
		}()
	}
}

func TestRunSequentialOnCallingGoroutine(t *testing.T) {
	// A one-worker pool degenerates every submission to the inline
	// loop, which must preserve index order (the sequential guarantee
	// forEachCell's contract documents).
	s := NewShared(1)
	defer s.Close()
	var order []int
	run(s, nil, 0, 5, func(i int) { order = append(order, i) })
	for i, got := range order {
		if got != i {
			t.Fatalf("sequential order broken: %v", order)
		}
	}
	if len(order) != 5 {
		t.Fatalf("ran %d jobs, want 5", len(order))
	}
}

// TestRunContextNilIsRun: a nil ctx means no cancellation.
func TestRunContextNilIsRun(t *testing.T) {
	s := NewShared(4)
	defer s.Close()
	var ran atomic.Int64
	run(s, nil, 0, 100, func(i int) { ran.Add(1) })
	if ran.Load() != 100 {
		t.Fatalf("ran %d of 100 jobs", ran.Load())
	}
}

func TestRunContextCancelledUpFront(t *testing.T) {
	s := NewShared(4)
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, limit := range []int{1, 4} {
		var ran atomic.Int64
		run(s, ctx, limit, 100, func(i int) { ran.Add(1) })
		if ran.Load() != 0 {
			t.Fatalf("limit=%d: cancelled submission ran %d jobs", limit, ran.Load())
		}
	}
}

func TestRunContextCancelMidway(t *testing.T) {
	s := NewShared(4)
	defer s.Close()
	for _, limit := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int64
		run(s, ctx, limit, 1_000, func(i int) {
			if ran.Add(1) == 10 {
				cancel()
			}
		})
		cancel()
		got := ran.Load()
		if got < 10 || got == 1_000 {
			t.Fatalf("limit=%d: ran %d jobs; want >=10 and <1000", limit, got)
		}
	}
}
