package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
)

// metricDef declares one reported metric. For per-layer metrics, Moves
// names the end-to-end metric and workload the layer should move.
type metricDef struct {
	Name, Unit, Better string
	Layer, Moves       string
}

// endToEnd are the metrics of a run with tracing off. Every workload
// reports all of them; an operation is one HTTP request (serve-*), one
// run and resume of one network's campaign (campaign-resume) or one
// pass over E1–E13 (experiments-quick).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "latency_tail_ms", Unit: "ms", Better: "lower"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "ok_ratio", Unit: "ratio", Better: "higher"},
}

// perLayer are the metrics of the traced run, named after the modules
// they time. Timings come from calls through each layer's public
// functions on the workload's own inputs (the "ladder"); counts and
// ratios are observed on the workload's traced end-to-end loop. The
// Moves column is the written prediction a change to the layer is
// judged against.
var perLayer = []metricDef{
	{"serve.decode_us_per_req", "us", "lower", "internal/serve", "ops_per_s, latency_p50_ms on serve-analyze; none on serve-simulate"},
	{"serve.encode_us_per_req", "us", "lower", "internal/serve", "ops_per_s, latency_p50_ms on serve-analyze; none on serve-simulate"},
	{"serve.request_self_us_p50", "us", "lower", "internal/serve", "ops_per_s, latency_p50_ms on serve-analyze; none on serve-simulate"},
	{"serve.endpoint_ms_mean", "ms", "lower", "internal/serve", "latency_p50_ms on serve-analyze and serve-simulate"},
	{"engine.op_us_mean", "us", "lower", "profirt (Engine)", "latency_p50_ms on serve-analyze and serve-simulate"},
	{"pool.jobs_per_op", "count", "lower", "internal/pool", "exact count; none"},
	{"pool.queue_wait_us_mean", "us", "lower", "internal/pool", "latency_p50_ms, latency_tail_ms on serve-analyze (0 when every job runs inline); none on serve-simulate"},
	{"pool.run_us_mean", "us", "lower", "internal/pool", "latency_p50_ms on every workload"},
	{"pool.inline_ratio", "ratio", "lower", "internal/pool", "latency_p50_ms on serve-analyze"},
	{"pool.dispatch_ns_per_job", "ns", "lower", "internal/pool", "latency_p50_ms, latency_tail_ms on serve-analyze; none on serve-simulate"},
	{"memo.hit_ratio", "ratio", "higher", "internal/memo", "ops_per_s on serve-analyze; campaign.warm_jobs_per_s; none on serve-simulate"},
	{"memo.lookups_per_net", "count", "lower", "internal/memo", "exact count; ops_per_s on serve-analyze"},
	{"memo.lookup_ns_mean", "ns", "lower", "internal/memo", "ops_per_s on serve-analyze; none on serve-simulate"},
	{"memo.evictions", "count", "lower", "internal/memo", "ops_per_s on serve-analyze"},
	{"memo.hit_us_per_net", "us", "lower", "internal/memo", "ops_per_s on serve-analyze; campaign.warm_jobs_per_s; none on serve-simulate"},
	{"memo.miss_overhead_us_per_net", "us", "lower", "internal/memo", "ops_per_s on serve-analyze; none on serve-simulate"},
	{"memo.store_put_us", "us", "lower", "internal/memo (Store)", "ops_per_s on campaign-resume (cold pass)"},
	{"memo.store_get_us", "us", "lower", "internal/memo (Store)", "campaign.warm_jobs_per_s; ops_per_s on campaign-resume weakly"},
	{"memo.store_open_ms", "ms", "lower", "internal/memo (Store)", "campaign.warm_jobs_per_s; ops_per_s on campaign-resume weakly"},
	{"memo.store_bytes_per_job", "B", "lower", "internal/memo (Store)", "ops_per_s on campaign-resume"},
	{"core.fcfs_us_per_net", "us", "lower", "internal/core", "ops_per_s on serve-analyze; none on serve-simulate"},
	{"core.dm_us_per_net", "us", "lower", "internal/core", "ops_per_s, latency_tail_ms on serve-analyze; none on serve-simulate"},
	{"core.edf_us_per_net", "us", "lower", "internal/core", "ops_per_s, latency_tail_ms on serve-analyze; campaign.warm_jobs_per_s; none on serve-simulate"},
	{"core.edf_us_p99", "us", "lower", "internal/core", "latency_tail_ms on serve-analyze"},
	{"core.unschedulable_ratio", "ratio", "lower", "internal/core", "exact count; none"},
	{"profibus.sim_ms_per_net", "ms", "lower", "internal/profibus", "ops_per_s, latency_tail_ms on serve-simulate; ops_per_s on campaign-resume and experiments-quick; none on serve-analyze"},
	{"profibus.ns_per_cycle", "ns", "lower", "internal/profibus", "ops_per_s on serve-simulate and campaign-resume; none on serve-analyze"},
	{"profibus.cycles", "count", "lower", "internal/profibus", "exact count; none"},
	{"profibus.token_passes", "count", "lower", "internal/profibus", "exact count; none"},
	{"profibus.miss_ratio", "ratio", "lower", "internal/profibus", "exact count; none"},
	{"des.ns_per_event_deep", "ns", "lower", "internal/des", "ops_per_s on serve-simulate strongly, campaign-resume weakly"},
	{"des.ns_per_event_shallow", "ns", "lower", "internal/des", "ops_per_s on serve-simulate and campaign-resume once the simulator keeps one pending release per stream"},
	{"des.events", "count", "lower", "internal/des", "exact count; none"},
	{"campaign.row_self_us", "us", "lower", "internal/campaign", "ops_per_s on campaign-resume"},
	{"campaign.cold_jobs_per_s", "1/s", "higher", "internal/campaign", "ops_per_s, latency_p50_ms on campaign-resume"},
	{"campaign.warm_jobs_per_s", "1/s", "higher", "internal/campaign", "ops_per_s on campaign-resume weakly (the resume is about 5% of an operation)"},
	{"campaign.executed", "count", "lower", "internal/campaign", "exact count; none"},
	{"campaign.restored", "count", "lower", "internal/campaign", "exact count; none"},
	{"experiments.E1_ms", "ms", "lower", "internal/experiments, internal/sched", "ops_per_s on experiments-quick"},
	{"experiments.E2_ms", "ms", "lower", "internal/experiments, internal/sched", "ops_per_s on experiments-quick"},
	{"experiments.E3_ms", "ms", "lower", "internal/experiments, internal/sched", "ops_per_s on experiments-quick"},
	{"experiments.E4_ms", "ms", "lower", "internal/experiments, internal/sched, internal/cpusim", "ops_per_s on experiments-quick"},
	{"experiments.E5_ms", "ms", "lower", "internal/experiments, internal/sched, internal/cpusim", "ops_per_s on experiments-quick"},
	{"experiments.E6_ms", "ms", "lower", "internal/experiments, internal/profibus", "ops_per_s on experiments-quick"},
	{"experiments.E7_ms", "ms", "lower", "internal/experiments, internal/profibus", "ops_per_s on experiments-quick"},
	{"experiments.E8_ms", "ms", "lower", "internal/experiments, internal/profibus", "ops_per_s on experiments-quick"},
	{"experiments.E9_ms", "ms", "lower", "internal/experiments, internal/core, internal/memo", "ops_per_s on experiments-quick"},
	{"experiments.E10_ms", "ms", "lower", "internal/experiments, internal/core, internal/memo", "ops_per_s on experiments-quick"},
	{"experiments.E11_ms", "ms", "lower", "internal/experiments, internal/profibus", "ops_per_s on experiments-quick"},
	{"experiments.E12_ms", "ms", "lower", "internal/experiments, internal/topology", "ops_per_s on experiments-quick"},
	{"experiments.E13_ms", "ms", "lower", "internal/experiments, internal/holistic", "ops_per_s on experiments-quick"},
	{"obs.trace_overhead_pct", "%", "lower", "internal/obs", "none: tracing is off in end-to-end runs"},
	{"obs.spans_per_op", "count", "lower", "internal/obs", "none: tracing is off in end-to-end runs"},
	{"obs.dropped_spans", "count", "lower", "internal/obs", "none; must stay 0"},
}

// metricSet returns the metric table a run reports.
func metricSet(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// tally counts one phase's operations.
type tally struct {
	Phase              string
	Sent, OK, Failed   int64
	mu                 sync.Mutex
	firstFailureReason string
}

// record books one finished operation; reason explains a failure.
func (t *tally) record(ok bool, reason string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.Sent++
	if ok {
		t.OK++
		return
	}
	t.Failed++
	if t.firstFailureReason == "" {
		t.firstFailureReason = reason
	}
}

// ledger is a run's failure accounting: every phase's sent, succeeded
// and failed operations, plus check failures that are not operations
// (a count that differs between two passes, a dropped span).
type ledger struct {
	mu     sync.Mutex
	phases []*tally
	checks []string
}

// phase opens a named phase.
func (l *ledger) phase(name string) *tally {
	l.mu.Lock()
	defer l.mu.Unlock()
	t := &tally{Phase: name}
	l.phases = append(l.phases, t)
	return t
}

// fail books a failed check.
func (l *ledger) fail(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.checks = append(l.checks, fmt.Sprintf(format, args...))
}

// totals sums every phase; a failed check counts as one failed
// attempt of its own.
func (l *ledger) totals() (attempted, failed int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, t := range l.phases {
		t.mu.Lock()
		attempted += t.Sent
		failed += t.Failed
		t.mu.Unlock()
	}
	attempted += int64(len(l.checks))
	failed += int64(len(l.checks))
	return attempted, failed
}

// writeSummary prints the per-phase accounting.
func (l *ledger) writeSummary(w io.Writer) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, t := range l.phases {
		t.mu.Lock()
		fmt.Fprintf(w, "phase %-24s sent %6d  ok %6d  failed %d", t.Phase, t.Sent, t.OK, t.Failed)
		if t.firstFailureReason != "" {
			fmt.Fprintf(w, "  (first: %s)", t.firstFailureReason)
		}
		fmt.Fprintln(w)
		t.mu.Unlock()
	}
	for _, c := range l.checks {
		fmt.Fprintf(w, "check failed: %s\n", c)
	}
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// buildResult checks that values holds exactly the metrics of set,
// each finite, and assembles the output.
func buildResult(set []metricDef, values map[string]float64, l *ledger) (result, error) {
	var problems []string
	metrics := make(map[string]metricValue, len(set))
	for _, m := range set {
		v, ok := values[m.Name]
		switch {
		case !ok:
			problems = append(problems, "missing "+m.Name)
		case math.IsNaN(v) || math.IsInf(v, 0):
			problems = append(problems, fmt.Sprintf("%s is %v", m.Name, v))
		default:
			metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		}
	}
	for name := range values {
		if !hasMetric(set, name) {
			problems = append(problems, "unexpected "+name)
		}
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		return result{}, fmt.Errorf("metrics: %s", strings.Join(problems, "; "))
	}
	attempted, failed := l.totals()
	return result{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   metrics,
	}, nil
}

func hasMetric(set []metricDef, name string) bool {
	for _, m := range set {
		if m.Name == name {
			return true
		}
	}
	return false
}

// writeResult prints the result as one JSON line.
func writeResult(w io.Writer, r result) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
