package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

func TestLedgerAccounting(t *testing.T) {
	var l ledger
	a := l.phase("measure")
	a.record(true, "")
	a.record(false, "status 429")
	a.record(true, "")
	b := l.phase("verify")
	b.record(false, "reply differs")
	attempted, failed := l.totals()
	if attempted != 4 || failed != 2 {
		t.Fatalf("totals = %d attempted, %d failed; want 4, 2", attempted, failed)
	}
	l.fail("count gate: %s", "profibus.cycles")
	attempted, failed = l.totals()
	if attempted != 5 || failed != 3 {
		t.Fatalf("after a failed check: %d attempted, %d failed; want 5, 3", attempted, failed)
	}
	var sb strings.Builder
	l.writeSummary(&sb)
	for _, want := range []string{"measure", "status 429", "reply differs", "count gate"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("summary lacks %q:\n%s", want, sb.String())
		}
	}

	values := map[string]float64{}
	for _, m := range endToEnd {
		values[m.Name] = 1
	}
	res, err := buildResult(endToEnd, values, &l)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Attempted != 5 || res.Failed != 3 {
		t.Errorf("result = %+v; want incorrect with 5 attempted, 3 failed", res)
	}
	var clean ledger
	clean.phase("measure").record(true, "")
	if res, _ := buildResult(endToEnd, values, &clean); !res.Correct || res.Attempted != 1 || res.Failed != 0 {
		t.Errorf("clean result = %+v", res)
	}
}

func TestBuildResultRejectsBadMetricSets(t *testing.T) {
	var l ledger
	values := map[string]float64{}
	for _, m := range endToEnd {
		values[m.Name] = 1
	}
	delete(values, "setup_s")
	if _, err := buildResult(endToEnd, values, &l); err == nil || !strings.Contains(err.Error(), "missing setup_s") {
		t.Errorf("missing metric: err = %v", err)
	}
	values["setup_s"] = 1
	values["bogus"] = 2
	if _, err := buildResult(endToEnd, values, &l); err == nil || !strings.Contains(err.Error(), "unexpected bogus") {
		t.Errorf("extra metric: err = %v", err)
	}
}

// benchmarkFile is the part of BENCHMARK.json the benchmark must agree
// with.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || strings.Contains(w.Why, "\n") || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end_to_end %d: BENCHMARK.json %+v, benchmark %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer %d: BENCHMARK.json %+v, benchmark %+v", i, m, d)
		}
		if d.Layer == "" || d.Moves == "" {
			t.Errorf("%s: the benchmark must name its layer and the end-to-end metric it should move", d.Name)
		}
	}
}
