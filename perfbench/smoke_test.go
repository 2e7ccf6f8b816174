package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var (
	buildOnce sync.Once
	buildDir  string
	buildErr  error
)

// testBuild builds cmd/profiserve from the enclosing checkout into a
// temporary build directory shared by the smoke tests.
func testBuild(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		buildDir, buildErr = os.MkdirTemp("", "perfbench-test-")
		if buildErr != nil {
			return
		}
		cmd := exec.Command("go", "build", "-o", filepath.Join(buildDir, "bin", "profiserve"), "./cmd/profiserve")
		cmd.Dir = ".."
		if out, err := cmd.CombinedOutput(); err != nil {
			buildErr = err
			t.Logf("%s", out)
		}
	})
	if buildErr != nil {
		t.Fatalf("building profiserve: %v", buildErr)
	}
	return buildDir
}

func TestMain(m *testing.M) {
	code := m.Run()
	if buildDir != "" {
		os.RemoveAll(buildDir)
	}
	os.Exit(code)
}

// smoke runs one workload with tiny inputs and returns its result.
func smoke(t *testing.T, workload string, trace bool, seed string) result {
	t.Helper()
	tr := "0"
	if trace {
		tr = "1"
	}
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{
		"-workload", workload, "-seed", seed, "-seconds", "0.2", "-trace", tr,
		"-root", "..", "-build", testBuild(t), "-smoke",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("%s trace=%v: exit %d\n%s", workload, trace, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v\n%s", workload, err, stdout.String())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s trace=%v: %+v\n%s", workload, trace, res, stdout.String())
	}
	if !strings.HasPrefix(lines[0], "provenance ") {
		t.Errorf("%s: first line is not the provenance record: %q", workload, lines[0])
	}
	set := metricSet(trace)
	if len(res.Metrics) != len(set) {
		t.Errorf("%s trace=%v: %d metrics, want %d", workload, trace, len(res.Metrics), len(set))
	}
	for _, m := range set {
		v, ok := res.Metrics[m.Name]
		if !ok || v.Unit != m.Unit {
			t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", workload, trace, m.Name, v, m.Unit)
		}
	}
	return res
}

// exactCounts are the traced metrics the exact-count gate pins.
var exactCounts = []string{
	"pool.jobs_per_op", "memo.lookups_per_net", "core.unschedulable_ratio",
	"profibus.cycles", "profibus.token_passes", "profibus.miss_ratio",
	"des.events", "campaign.executed", "campaign.restored",
}

func TestSmokeWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			e2e := smoke(t, w.name, false, "3")
			if e2e.Metrics["ok_ratio"].Value != 1 {
				t.Errorf("ok_ratio = %v", e2e.Metrics["ok_ratio"].Value)
			}
			// Two traced runs of one seed: the second passes the
			// count gate against the first, and the counts agree.
			a := smoke(t, w.name, true, "4")
			b := smoke(t, w.name, true, "4")
			for _, name := range exactCounts {
				if a.Metrics[name] != b.Metrics[name] {
					t.Errorf("%s: %v then %v for one seed", name, a.Metrics[name].Value, b.Metrics[name].Value)
				}
			}
			if a.Metrics["obs.dropped_spans"].Value != 0 || a.Metrics["obs.spans_per_op"].Value <= 0 {
				t.Errorf("tracing: %v dropped, %v spans per op",
					a.Metrics["obs.dropped_spans"].Value, a.Metrics["obs.spans_per_op"].Value)
			}
		})
	}
}

func failures(e *env) int64 {
	_, failed := e.led.totals()
	return failed
}

// TestCountGateCommitted: counts committed for a workload, seed and
// GOMAXPROCS must be reproduced by every tree, whatever its source.
func TestCountGateCommitted(t *testing.T) {
	root := t.TempDir()
	if err := os.Mkdir(filepath.Join(root, "perfbench"), 0o755); err != nil {
		t.Fatal(err)
	}
	e := &env{root: root, build: t.TempDir(), wl: workloads[0], seed: 9, counts: map[string]float64{"profibus.cycles": 10}}
	checkCounts(e, strings.Repeat("a", 64), true)
	if failures(e) != 0 {
		t.Fatal("writing the counts failed")
	}
	checkCounts(e, strings.Repeat("b", 64), false)
	if failures(e) != 0 {
		t.Fatal("equal counts failed on another tree")
	}
	e.counts["profibus.cycles"] = 11
	checkCounts(e, strings.Repeat("b", 64), false)
	if failures(e) != 1 {
		t.Fatal("a changed count on another tree must fail the run")
	}
	e.counts = map[string]float64{}
	checkCounts(e, strings.Repeat("b", 64), false)
	if failures(e) != 2 {
		t.Fatal("a missing count must fail the run")
	}
}

// TestCountGateLocal: counts of a key not committed are recorded per
// source tree by its first traced run.
func TestCountGateLocal(t *testing.T) {
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, "perfbench"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, countsFile), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	e := &env{root: root, build: t.TempDir(), wl: workloads[0], seed: 9, counts: map[string]float64{"profibus.cycles": 10}}
	checkCounts(e, strings.Repeat("a", 64), false)
	if failures(e) != 0 {
		t.Fatal("the first run of a seed has nothing to differ from")
	}
	e.counts["profibus.cycles"] = 11
	checkCounts(e, strings.Repeat("a", 64), false)
	if failures(e) != 1 {
		t.Fatal("a changed count must fail the run")
	}
	checkCounts(e, strings.Repeat("b", 64), false)
	if failures(e) != 1 {
		t.Fatal("uncommitted counts are per source tree")
	}
}

// TestCountsCommitted: the committed counts cover the development and
// held-out seeds of every workload at GOMAXPROCS 1, 2 and 4, each with
// every exact count.
func TestCountsCommitted(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", countsFile))
	if err != nil {
		t.Fatal(err)
	}
	var committed map[string]map[string]float64
	if err := json.Unmarshal(raw, &committed); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, seed := range []int64{1, heldOutSeed} {
			for _, procs := range []int{1, 2, 4} {
				key := countsKey(&env{wl: w, seed: seed}, procs)
				counts, ok := committed[key]
				if !ok {
					t.Errorf("%s: no committed counts", key)
					continue
				}
				for _, name := range exactCounts {
					if _, ok := counts[name]; !ok {
						t.Errorf("%s: no %s", key, name)
					}
				}
			}
		}
	}
}

// TestRefusesOutsideCheckout runs the wrapper in a directory holding
// only BENCHMARK.json and the benchmark's own files: it must fail
// without printing a result.
func TestRefusesOutsideCheckout(t *testing.T) {
	dir := t.TempDir()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "BENCHMARK.json"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if out, err := exec.Command("cp", "-r", ".", filepath.Join(dir, "perfbench")).CombinedOutput(); err != nil {
		t.Fatalf("%v: %s", err, out)
	}
	cmd := exec.Command("bash", "perfbench/run.sh", "--workload", "serve-analyze", "--seed", "1", "--seconds", "1", "--trace", "0")
	cmd.Dir = dir
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err == nil {
		t.Fatal("run.sh succeeded outside a checkout")
	}
	if strings.Contains(stdout.String(), `"correct"`) {
		t.Fatalf("run.sh printed a result outside a checkout: %s", stdout.String())
	}
}
