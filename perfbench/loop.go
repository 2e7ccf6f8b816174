package main

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// opResult is one finished operation.
type opResult struct {
	lat    time.Duration
	ok     bool
	reason string
}

// loopStats summarizes a measured loop.
type loopStats struct {
	// lats holds every operation's latency in ms; failed operations
	// are +Inf, so they count as missing any latency limit.
	lats    []float64
	ok      int
	elapsed time.Duration
}

func (s loopStats) opsPerSec() float64 { return float64(s.ok) / s.elapsed.Seconds() }

// closedLoop runs clients callers that each wait for their previous
// operation before starting the next. Operations are numbered in the
// order they start; op(i) performs number i and returns its own
// latency, so per-operation preparation stays off the clock. The loop
// ends once d has passed and at least minOps operations finished, at
// an operation number divisible by unit (whole cycles of a workload's
// input list); it never runs past 4·d.
func closedLoop(ctx context.Context, clients int, d time.Duration, minOps, unit int, t *tally, op func(i int) opResult) loopStats {
	var (
		next     atomic.Int64
		finished atomic.Int64
		mu       sync.Mutex
		lats     []float64
		ok       int
		wg       sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				el := time.Since(start)
				if el >= 4*d || (el >= d && finished.Load() >= int64(minOps) && i%unit == 0) {
					return
				}
				r := op(i)
				t.record(r.ok, r.reason)
				ms := math.Inf(1)
				if r.ok {
					ms = float64(r.lat) / float64(time.Millisecond)
				}
				mu.Lock()
				lats = append(lats, ms)
				if r.ok {
					ok++
				}
				mu.Unlock()
				finished.Add(1)
			}
		}()
	}
	wg.Wait()
	return loopStats{lats: lats, ok: ok, elapsed: time.Since(start)}
}

// reportLoop records the end-to-end metrics of a measured loop.
func reportLoop(e *env, s loopStats) {
	if len(s.lats) < e.minOps() {
		// The tail would rest on fewer than ten samples beyond it.
		e.led.fail("only %d operations in the measured loop; p%g wants %d", len(s.lats), e.wl.tail, e.minOps())
	}
	// A percentile that lands on failed operations reads the whole
	// loop's duration: a finite stand-in no operation could exceed.
	pct := func(p float64) float64 {
		v := percentile(s.lats, p)
		if math.IsInf(v, 1) {
			return float64(s.elapsed) / float64(time.Millisecond)
		}
		return v
	}
	e.set("ops_per_s", s.opsPerSec())
	e.set("latency_p50_ms", pct(50))
	e.set("latency_tail_ms", pct(e.wl.tail))
	okRatio := 0.0
	if len(s.lats) > 0 {
		okRatio = float64(s.ok) / float64(len(s.lats))
	}
	e.set("ok_ratio", okRatio)
	e.logf("%s: %d ops in %.2fs, p50 %.3f ms, p%g %.3f ms", e.wl.name, len(s.lats), s.elapsed.Seconds(),
		e.values["latency_p50_ms"], e.wl.tail, e.values["latency_tail_ms"])
}
