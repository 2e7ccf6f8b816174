package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"profirt"
	"profirt/internal/obs"
)

// engineTotals accumulates what Engines recorded about themselves over
// the operations of a traced loop: the Engine's op histograms, the
// pool's counters and histograms, and the analysis cache's counters.
type engineTotals struct {
	opCount, queueCount, runCount uint64
	opSumNs, queueSumNs, runSumNs int64
	jobs, submissions, inline     int64
	hits, misses, evictions       int64
}

// add books after − before; pass a zero before for a fresh Engine.
func (t *engineTotals) add(before, after profirt.EngineStats) {
	for i, o := range after.Latency.Ops {
		var b profirt.LatencySnapshot
		if i < len(before.Latency.Ops) {
			b = before.Latency.Ops[i].Latency
		}
		t.opCount += o.Latency.Count - b.Count
		t.opSumNs += o.Latency.SumNs - b.SumNs
	}
	t.queueCount += after.Latency.PoolQueueWait.Count - before.Latency.PoolQueueWait.Count
	t.queueSumNs += after.Latency.PoolQueueWait.SumNs - before.Latency.PoolQueueWait.SumNs
	t.runCount += after.Latency.PoolRun.Count - before.Latency.PoolRun.Count
	t.runSumNs += after.Latency.PoolRun.SumNs - before.Latency.PoolRun.SumNs
	t.jobs += after.Pool.Jobs - before.Pool.Jobs
	t.submissions += after.Pool.Submissions - before.Pool.Submissions
	t.inline += after.Pool.InlineSubmissions - before.Pool.InlineSubmissions
	t.hits += after.Cache.Hits - before.Cache.Hits
	t.misses += after.Cache.Misses - before.Cache.Misses
	t.evictions += after.Cache.Evictions - before.Cache.Evictions
}

// fanout is the mean pool jobs per submission, at least 1.
func (t *engineTotals) fanout() int {
	if t.submissions == 0 || t.jobs < t.submissions {
		return 1
	}
	return int((t.jobs + t.submissions/2) / t.submissions)
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func meanUs(sumNs int64, count uint64) float64 {
	if count == 0 {
		return 0
	}
	return float64(sumNs) / float64(count) / 1e3
}

// reportEngine records the observed engine, pool and cache metrics of
// ops workload operations.
func reportEngine(e *env, t engineTotals, ops int) {
	e.set("engine.op_us_mean", meanUs(t.opSumNs, t.opCount))
	e.setCount("pool.jobs_per_op", float64(t.jobs)/float64(ops))
	// Queue wait reads 0 when the loop put no job on the workers (every
	// submission ran inline); run time covers inline jobs too.
	e.set("pool.queue_wait_us_mean", meanUs(t.queueSumNs, t.queueCount))
	e.set("pool.run_us_mean", meanUs(t.runSumNs, t.runCount))
	e.set("pool.inline_ratio", ratio(t.inline, t.submissions+t.inline))
	e.set("memo.hit_ratio", ratio(t.hits, t.hits+t.misses))
	e.set("memo.evictions", float64(t.evictions))
}

// span is one recorded span, from a Tracer or a trace_event file.
type span struct {
	name           string
	id, parent     uint64
	startNs, durNs int64
}

func spansOf(events []obs.Event) []span {
	out := make([]span, len(events))
	for i, ev := range events {
		out[i] = span{name: ev.Name, id: ev.ID, parent: ev.Parent, startNs: ev.StartNs, durNs: ev.DurNs}
	}
	return out
}

// selfTimesUs returns, for every span whose name has the given prefix,
// its duration minus the part of it its direct children cover, in µs.
func selfTimesUs(spans []span, prefix string) []float64 {
	children := map[uint64][]span{}
	for _, s := range spans {
		children[s.parent] = append(children[s.parent], s)
	}
	var out []float64
	for _, s := range spans {
		if !strings.HasPrefix(s.name, prefix) {
			continue
		}
		kids := children[s.id]
		sort.Slice(kids, func(i, j int) bool { return kids[i].startNs < kids[j].startNs })
		end := s.startNs + s.durNs
		covered, cur := int64(0), s.startNs
		for _, k := range kids {
			lo, hi := max(k.startNs, cur), min(k.startNs+k.durNs, end)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out = append(out, float64(s.durNs-covered)/1e3)
	}
	return out
}

// traceFile is the part of a Chrome trace_event export the benchmark
// reads.
type traceFile struct {
	TraceEvents []struct {
		Name string  `json:"name"`
		TS   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Args struct {
			Span   uint64 `json:"span"`
			Parent uint64 `json:"parent"`
		} `json:"args"`
	} `json:"traceEvents"`
	OtherData struct {
		Dropped uint64 `json:"dropped"`
	} `json:"otherData"`
}

// readTraceDir parses every trace file in dir not named in skip and
// returns the spans of each file plus the total dropped count.
func readTraceDir(dir string, skip map[string]bool) ([][]span, uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, 0, err
	}
	var out [][]span
	var dropped uint64
	for _, en := range entries {
		if skip[en.Name()] || !strings.HasSuffix(en.Name(), ".trace.json") {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(dir, en.Name()))
		if err != nil {
			return nil, 0, err
		}
		var tf traceFile
		if err := json.Unmarshal(raw, &tf); err != nil {
			return nil, 0, fmt.Errorf("%s: %w", en.Name(), err)
		}
		spans := make([]span, len(tf.TraceEvents))
		for i, ev := range tf.TraceEvents {
			spans[i] = span{
				name: ev.Name, id: ev.Args.Span, parent: ev.Args.Parent,
				startNs: int64(ev.TS * 1e3), durNs: int64(ev.Dur * 1e3),
			}
		}
		out = append(out, spans)
		dropped += tf.OtherData.Dropped
	}
	return out, dropped, nil
}

func dirNames(dir string) map[string]bool {
	names := map[string]bool{}
	entries, _ := os.ReadDir(dir) // a missing directory has no names
	for _, en := range entries {
		names[en.Name()] = true
	}
	return names
}

// reportTracing records the tracing layer's own metrics: overhead of
// the traced loop against the untraced one, spans per operation, and
// dropped spans (which fail the run).
func reportTracing(e *env, untraced, traced loopStats, spans, dropped uint64) {
	e.set("obs.trace_overhead_pct", (untraced.opsPerSec()/traced.opsPerSec()-1)*100)
	e.set("obs.spans_per_op", float64(spans)/float64(len(traced.lats)))
	e.set("obs.dropped_spans", float64(dropped))
	if dropped != 0 {
		e.led.fail("tracing dropped %d spans", dropped)
	}
}
