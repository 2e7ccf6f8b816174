package profirt_test

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"profirt"
	"profirt/internal/obs"
)

// This file gates the observability invariant: histograms and span
// tracing are observational only. A traced, fully instrumented Engine
// must produce results byte-identical to an uninstrumented one, and
// the trace it emits must nest request-shaped work correctly
// (engine op → pool job → memo lookup).

func TestEngineLatencyStats(t *testing.T) {
	nets := equivNets(211, 16, 2)
	eng := profirt.NewEngine(profirt.WithParallelism(2), profirt.WithCache(profirt.NewAnalysisCache(0)))
	defer eng.Close()
	if _, err := eng.AnalyzeNetworks(context.Background(), nets, profirt.AnalyzeOptions{}); err != nil {
		t.Fatal(err)
	}
	ls := eng.Stats().Latency
	if !ls.Enabled {
		t.Fatal("Latency.Enabled = false on a default Engine")
	}
	var analyze profirt.LatencySnapshot
	for _, op := range ls.Ops {
		if op.Op == "analyze_networks" {
			analyze = op.Latency
		}
	}
	if analyze.Count != 1 {
		t.Fatalf("analyze_networks latency count = %d, want 1", analyze.Count)
	}
	if ls.PoolRun.Count == 0 {
		t.Fatal("PoolRun histogram empty after a parallel batch")
	}
	if ls.PoolQueueWait.Count == 0 {
		t.Fatal("PoolQueueWait histogram empty after a parallel batch")
	}
	if ls.CacheLookup.Count == 0 {
		t.Fatal("CacheLookup histogram empty despite repeated networks")
	}
	if len(profirt.LatencyBucketBounds()) == 0 {
		t.Fatal("LatencyBucketBounds returned no bounds")
	}
	// The snapshot must survive a JSON round trip (serve exports it).
	if _, err := json.Marshal(ls); err != nil {
		t.Fatalf("latency stats not serializable: %v", err)
	}
}

// TestCacheLookupSampledOnColdMisses: every cache lookup, miss or hit,
// goes through the sampled probe, so a cold batch of all-distinct
// networks times exactly one lookup in every 16.
func TestCacheLookupSampledOnColdMisses(t *testing.T) {
	nets := equivNets(229, 64, 1)
	cache := profirt.NewAnalysisCache(0)
	eng := profirt.NewEngine(profirt.WithParallelism(2), profirt.WithCache(cache))
	defer eng.Close()
	if _, err := eng.AnalyzeNetworks(context.Background(), nets, profirt.AnalyzeOptions{}); err != nil {
		t.Fatal(err)
	}
	st := cache.Stats()
	lookups := st.Hits + st.Misses
	if lookups < 16 {
		t.Fatalf("only %d cache lookups; the batch is too small to sample", lookups)
	}
	if got, want := eng.Stats().Latency.CacheLookup.Count, uint64(lookups/16); got != want {
		t.Fatalf("CacheLookup.Count = %d, want %d (one in 16 of %d lookups; stats %+v)", got, want, lookups, st)
	}
}

func TestEngineObservabilityOff(t *testing.T) {
	nets := equivNets(223, 8, 1)
	eng := profirt.NewEngine(profirt.WithParallelism(2), profirt.WithObservability(false))
	defer eng.Close()
	if _, err := eng.AnalyzeNetworks(context.Background(), nets, profirt.AnalyzeOptions{}); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.Latency.Enabled {
		t.Fatal("Latency.Enabled = true with WithObservability(false)")
	}
	if st.Latency.PoolRun.Count != 0 || len(st.Latency.Ops) != 0 {
		t.Fatal("disabled Engine recorded latency anyway")
	}
	// The counters are independent of the histograms and must still
	// advance.
	if st.Ops.AnalyzeNetworks != 1 {
		t.Fatalf("op counter = %d, want 1", st.Ops.AnalyzeNetworks)
	}
}

func TestTracedResultsByteIdentical(t *testing.T) {
	nets := equivNets(227, 24, 2)
	plain := profirt.NewEngine(profirt.WithParallelism(4), profirt.WithObservability(false))
	want, err := plain.AnalyzeNetworks(context.Background(), nets, profirt.AnalyzeOptions{})
	plain.Close()
	if err != nil {
		t.Fatal(err)
	}

	eng := profirt.NewEngine(profirt.WithParallelism(4), profirt.WithCache(profirt.NewAnalysisCache(0)))
	defer eng.Close()
	tr := obs.NewTracer("identity", nil)
	ctx := obs.WithTracer(context.Background(), tr)
	got, err := eng.AnalyzeNetworks(ctx, nets, profirt.AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("traced+instrumented results diverged from plain results")
	}
	if len(tr.Events()) == 0 {
		t.Fatal("tracer recorded nothing")
	}
}

// TestTraceNesting drives a traced engine call and verifies the span
// chain the ISSUE promises: root → engine op → pool submission →
// pool job → memo lookup.
func TestTraceNesting(t *testing.T) {
	nets := equivNets(229, 16, 2)
	eng := profirt.NewEngine(profirt.WithParallelism(4), profirt.WithCache(profirt.NewAnalysisCache(0)))
	defer eng.Close()

	tr := obs.NewTracer("nest", nil)
	ctx := obs.WithTracer(context.Background(), tr)
	ctx, root := obs.StartSpan(ctx, "request")
	if _, err := eng.AnalyzeNetworks(ctx, nets, profirt.AnalyzeOptions{}); err != nil {
		t.Fatal(err)
	}
	root.End()

	byID := map[uint64]obs.Event{}
	for _, e := range tr.Events() {
		byID[e.ID] = e
	}
	// Walk up from a memo.lookup span and collect the ancestor chain.
	var chainFound bool
	for _, e := range tr.Events() {
		if e.Name != "memo.lookup" {
			continue
		}
		names := []string{}
		for cur := e; ; {
			parent, ok := byID[cur.Parent]
			if !ok {
				break
			}
			names = append(names, parent.Name)
			cur = parent
		}
		// names is child-to-root, e.g. [pool.job pool.submit
		// engine.analyze_networks request].
		if len(names) == 4 && names[0] == "pool.job" && names[1] == "pool.submit" &&
			names[2] == "engine.analyze_networks" && names[3] == "request" {
			chainFound = true
			break
		}
	}
	if !chainFound {
		for _, e := range tr.Events() {
			t.Logf("span %d parent=%d name=%s", e.ID, e.Parent, e.Name)
		}
		t.Fatal("no memo.lookup span with the full request → engine → pool.submit → pool.job ancestry")
	}

	// The export must be valid trace_event JSON.
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("trace export is not valid JSON: %v", err)
	}
	if _, ok := decoded["traceEvents"]; !ok {
		t.Fatal("trace export missing traceEvents")
	}
}
