// Package pool provides the bounded index fan-out every parallel layer
// runs on: n independent jobs identified by index, executed by a Shared
// pool — a fixed set of long-lived workers that any number of
// concurrent submitters share with round-robin fair admission. It is
// the execution layer behind the root package's Engine. Callers own
// determinism — each job must write only to state keyed by its own
// index.
package pool

import (
	"bytes"
	"context"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"profirt/internal/obs"
)

// Shared is a fixed set of worker goroutines serving any number of
// concurrent submitters. Rather than each batch spinning its own
// workers — so N concurrent batches would oversubscribe the machine
// with N×GOMAXPROCS goroutines — a Shared pool admits all of them onto
// one bounded worker set, interleaving their jobs round-robin so no
// submitter starves and the total number of running jobs never exceeds
// the pool width.
//
// Admission is fair at job granularity: active submissions queue in a
// ring, and each worker takes one index from the head submission before
// it is re-queued at the tail, so M concurrent submissions each see
// roughly workers/M of the pool. A submission may additionally bound its
// own in-flight jobs (RunJobs' limit): a submission at its limit parks
// until one of its jobs completes. Two deliberate exceptions run inline
// on the caller instead of the workers — submissions whose effective
// limit is 1 (sequential calls must stay free of pool overhead, the
// "parallelism 1 costs nothing" contract, which also covers n == 1) and
// re-entrant submissions from a worker (below) — so the precise bound
// is: pool-width jobs on the workers, plus any callers running those
// submissions inline.
//
// Re-entrancy is safe but not shared: a RunJobs issued from one of the
// pool's own workers (a job, or a callback a job invokes, that submits
// again) is detected and executed inline on that worker, in the same
// sequential loop as a limit-1 submission — blocking a worker on work
// only workers can run would deadlock. Detection keys on the calling
// goroutine, not on the context, because callbacks that submit again
// need not thread the job's context through (a nil ctx is valid).
type Shared struct {
	mu      sync.Mutex
	cond    *sync.Cond // workers wait here for queued work
	queue   []*submission
	gids    map[int64]struct{} // goroutine ids of this pool's workers
	closed  bool
	workers int
	wg      sync.WaitGroup

	// Occupancy gauges and lifetime counters behind Stats. The gauges
	// (inFlight, active) are mutated only where the mutex is already
	// held by the dispatch bookkeeping, so tracking them costs nothing
	// extra; the counters are plain int64s under the same mutex. Inline
	// submissions (limit 1, or re-entrant) never touch the workers, so
	// they are tallied separately with an atomic.
	inFlight    int   // jobs executing on workers right now
	active      int   // admitted submissions not yet settled
	submissions int64 // total submissions admitted to the workers
	jobs        int64 // total jobs executed on the workers
	inline      atomic.Int64

	// obs, when set (NewSharedObserved), records per-job queue-wait
	// and run-time histograms. Purely observational: recording never
	// blocks dispatch and timing never reaches job results.
	obs *obs.PoolMetrics
}

// Stats is a point-in-time snapshot of a Shared pool's occupancy and
// lifetime counters (see Shared.Stats).
type Stats struct {
	// Workers is the pool width.
	Workers int
	// InFlight is the number of jobs executing on workers at the
	// snapshot instant — the pool's occupancy, between 0 and Workers.
	InFlight int
	// QueueDepth is the number of submissions waiting in the admission
	// ring at the snapshot instant (parked submissions — at their
	// in-flight limit — are not in the ring and thus not counted).
	QueueDepth int
	// ActiveSubmissions counts RunJobs calls admitted to the workers
	// and not yet settled.
	ActiveSubmissions int
	// Submissions counts RunJobs calls ever admitted to the workers.
	Submissions int64
	// InlineSubmissions counts calls that ran on their caller instead:
	// sequential submissions (effective limit 1) and re-entrant
	// submissions from a worker.
	InlineSubmissions int64
	// Jobs counts jobs executed on the workers since construction.
	Jobs int64
	// Closed reports whether Close has been called.
	Closed bool
}

// Stats snapshots the pool's occupancy gauges and lifetime counters.
// Safe to call from any goroutine at any time, including concurrently
// with Close.
func (s *Shared) Stats() Stats {
	s.mu.Lock()
	st := Stats{
		Workers:           s.workers,
		InFlight:          s.inFlight,
		QueueDepth:        len(s.queue),
		ActiveSubmissions: s.active,
		Submissions:       s.submissions,
		Jobs:              s.jobs,
		Closed:            s.closed,
	}
	s.mu.Unlock()
	st.InlineSubmissions = s.inline.Load()
	return st
}

// submission is one RunJobs call in flight on a Shared pool.
type submission struct {
	ctx      context.Context
	fn       func(context.Context, int)
	n        int
	limit    int
	next     int // next index to dispatch
	inflight int
	stopped  bool // ctx cancelled or a job panicked: dispatch no more
	queued   bool // currently in the ring
	panicked bool
	panicVal any
	done     chan struct{}

	enqueued time.Time // ring-entry instant; set only when the pool records metrics
	traced   bool      // ctx carries an obs.Tracer: jobs open pool.job spans
}

// hasWork reports whether the submission still has indices to dispatch.
// Caller holds the pool mutex.
func (s *submission) hasWork() bool { return !s.stopped && s.next < s.n }

// settled reports whether the submission is finished: nothing running
// and nothing left to dispatch. Caller holds the pool mutex.
func (s *submission) settled() bool { return s.inflight == 0 && !s.hasWork() }

// NewShared builds a pool of `workers` long-lived goroutines
// (workers <= 0 selects runtime.GOMAXPROCS(0)). Close releases them.
func NewShared(workers int) *Shared {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	s := &Shared{workers: workers, gids: make(map[int64]struct{}, workers)}
	s.cond = sync.NewCond(&s.mu)
	s.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go s.worker()
	}
	return s
}

// NewSharedObserved is NewShared plus latency instrumentation: every
// job records its queue wait (submission enqueue to dispatch) and run
// time into m. m must outlive the pool; a nil m is NewShared.
func NewSharedObserved(workers int, m *obs.PoolMetrics) *Shared {
	s := NewShared(workers)
	s.obs = m
	return s
}

// goroutineID parses the current goroutine's id from its stack header
// ("goroutine N [running]: ..."). One runtime.Stack of depth zero per
// RunJobs call that could reach the workers — microseconds, paid once
// per submission, never per job.
func goroutineID() int64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	head := bytes.TrimPrefix(buf[:n], []byte("goroutine "))
	if i := bytes.IndexByte(head, ' '); i > 0 {
		if id, err := strconv.ParseInt(string(head[:i]), 10, 64); err == nil {
			return id
		}
	}
	return -1
}

// Workers returns the pool width.
func (s *Shared) Workers() int { return s.workers }

// Close stops the workers after their current jobs and waits for them
// to exit. Submissions still in flight are completed first; RunJobs
// after Close panics. Close is idempotent.
func (s *Shared) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
}

// RunJobs evaluates fn(ctx, i) for every i in [0, n) on the shared
// workers, with at most limit jobs of this call in flight at once
// (limit <= 0 means the pool width), and blocks until every dispatched
// job has finished. A limit of 1 degenerates to a plain sequential loop
// on the calling goroutine, as does a call issued from one of this
// pool's own workers (see the re-entrancy note on Shared). Once ctx is
// done no further indices are dispatched and the in-flight jobs are
// awaited; indices never dispatched are simply not called, and a nil
// ctx means no cancellation. A panicking job stops dispatch and the
// panic is re-raised here with its original value. Any number of
// goroutines may call RunJobs concurrently — that is the point.
//
// Each job receives a context descended from ctx that carries the
// job's pool.job tracing span (when ctx is traced), so work the job
// does — cache lookups, nested spans — nests under the job in trace
// exports. On an observed pool (NewSharedObserved) every worker-run job
// also records queue-wait and run-time histograms; inline jobs never
// queue and record run time only.
func (s *Shared) RunJobs(ctx context.Context, limit, n int, fn func(ctx context.Context, i int)) {
	if n <= 0 {
		return
	}
	if limit <= 0 || limit > s.workers {
		limit = s.workers
	}
	if limit > n {
		limit = n
	}
	if limit <= 1 || s.isWorker() {
		s.runInline(ctx, n, fn)
		return
	}
	if ctx != nil && ctx.Err() != nil {
		return
	}
	sub := &submission{ctx: ctx, fn: fn, n: n, limit: limit, done: make(chan struct{})}
	if sub.traced = obs.TracerFrom(ctx) != nil; sub.traced {
		var sp obs.Span
		sub.ctx, sp = obs.StartSpan(ctx, "pool.submit")
		defer sp.End()
	}
	if s.obs != nil {
		sub.enqueued = s.obs.Clock.Now()
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		panic("pool: RunJobs on a closed Shared pool")
	}
	sub.queued = true
	s.queue = append(s.queue, sub)
	s.submissions++
	s.active++
	s.cond.Broadcast()
	s.mu.Unlock()
	<-sub.done
	if sub.panicked {
		panic(sub.panicVal)
	}
}

// isWorker reports whether the caller is one of this pool's workers.
// Only submissions that would otherwise reach the workers pay for the
// goroutine-id lookup.
func (s *Shared) isWorker() bool {
	gid := goroutineID()
	s.mu.Lock()
	_, ok := s.gids[gid]
	s.mu.Unlock()
	return ok
}

// runInline executes a sequential (limit 1) or re-entrant submission on
// the calling goroutine, with the same pool.job span a worker would
// apply. Queue wait is not recorded: inline jobs never enter the ring.
func (s *Shared) runInline(ctx context.Context, n int, fn func(context.Context, int)) {
	s.inline.Add(1)
	traced := obs.TracerFrom(ctx) != nil
	pm := s.obs
	// Chain the clock reads: each job's end reading doubles as the next
	// job's start, so timing n inline jobs costs n+1 reads instead of
	// 2n — the difference is measurable where the wall clock has no
	// fast path.
	var prev time.Time
	if pm != nil {
		prev = pm.Clock.Now()
	}
	for i := 0; i < n; i++ {
		if ctx != nil && ctx.Err() != nil {
			return
		}
		s.runInlineJob(ctx, traced, i, fn)
		if pm != nil {
			now := pm.Clock.Now()
			pm.Run.Observe(now.Sub(prev))
			prev = now
		}
	}
}

// runInlineJob executes one inline job, under a pool.job span when
// traced.
func (s *Shared) runInlineJob(ctx context.Context, traced bool, i int, fn func(context.Context, int)) {
	if traced {
		var sp obs.Span
		ctx, sp = obs.StartSpanArg(ctx, "pool.job", int64(i))
		defer sp.End()
	}
	fn(ctx, i)
}

// worker is the loop every pool goroutine runs: take one (submission,
// index) pair, execute it, repeat; sleep when the ring is empty.
func (s *Shared) worker() {
	defer s.wg.Done()
	gid := goroutineID()
	s.mu.Lock()
	s.gids[gid] = struct{}{}
	for {
		sub, idx, ok := s.take()
		if !ok {
			if s.closed {
				// Goroutine ids are recycled by the runtime; drop ours
				// so a future goroutine reusing it is not misread as a
				// worker.
				delete(s.gids, gid)
				s.mu.Unlock()
				return
			}
			s.cond.Wait()
			continue
		}
		s.mu.Unlock()
		s.exec(sub, idx)
		s.mu.Lock()
	}
}

// take pops ring entries until it finds a submission with dispatchable
// work, claims one index from it, and re-queues it at the tail when it
// may have more. Submissions at their in-flight limit are parked
// (dropped from the ring; job completion re-queues them), exhausted or
// stopped ones are dropped for good. Caller holds the pool mutex.
func (s *Shared) take() (*submission, int, bool) {
	for len(s.queue) > 0 {
		sub := s.queue[0]
		s.queue = s.queue[1:]
		sub.queued = false
		if !sub.hasWork() || sub.inflight >= sub.limit {
			continue
		}
		idx := sub.next
		sub.next++
		sub.inflight++
		s.inFlight++
		if sub.hasWork() && sub.inflight < sub.limit {
			sub.queued = true
			s.queue = append(s.queue, sub)
		}
		return sub, idx, true
	}
	return nil, 0, false
}

// exec runs one job and settles its bookkeeping: panics latch the
// submission stopped (first value kept for the submitter to re-raise),
// cancellation latches it stopped, the last job signals the submitter,
// and a still-live submission parked at its limit is re-queued.
func (s *Shared) exec(sub *submission, idx int) {
	defer func() {
		r := recover()
		s.mu.Lock()
		sub.inflight--
		s.inFlight--
		s.jobs++
		if r != nil {
			sub.stopped = true
			if !sub.panicked {
				sub.panicked = true
				sub.panicVal = r
			}
		}
		if sub.ctx != nil && sub.ctx.Err() != nil {
			sub.stopped = true
		}
		switch {
		case sub.settled():
			s.active--
			close(sub.done)
		case sub.hasWork() && !sub.queued:
			sub.queued = true
			s.queue = append(s.queue, sub)
			s.cond.Signal()
		}
		s.mu.Unlock()
	}()
	if sub.ctx != nil && sub.ctx.Err() != nil {
		return
	}
	jctx := sub.ctx
	if sub.traced {
		var sp obs.Span
		jctx, sp = obs.StartSpanArg(jctx, "pool.job", int64(idx))
		defer sp.End()
	}
	if pm := s.obs; pm != nil {
		start := pm.Clock.Now()
		pm.QueueWait.Observe(start.Sub(sub.enqueued))
		sub.fn(jctx, idx)
		// A panicking job skips run-time recording; the panic is the
		// signal that matters there.
		pm.Run.Observe(pm.Clock.Now().Sub(start))
		return
	}
	sub.fn(jctx, idx)
}
