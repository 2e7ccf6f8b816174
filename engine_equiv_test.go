package profirt_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"profirt"
	"profirt/internal/core"
	"profirt/internal/profibus"
	"profirt/internal/topology"
	"profirt/internal/workload"
)

// This file holds the property the Engine rests on: every Engine
// method must produce results byte-identical to an independent
// reference — plain sequential loops over the core, topology and
// profibus calls, with no pool and no cache — and to itself at any
// parallelism. The Engine only decides WHERE jobs run (one shared
// bounded pool with fair admission), never WHAT they compute:
// determinism is owned by per-job seed derivation and index-keyed
// result slots. Run under -race (make ci) these tests double as the
// data-race gate for the shared pool.

// enginePar is the parallelism ladder every equivalence property walks.
func enginePar() []int { return []int{1, 2, runtime.GOMAXPROCS(0)} }

// newEngine builds an Engine that is closed when the test ends.
func newEngine(t testing.TB, opts ...profirt.EngineOption) *profirt.Engine {
	eng := profirt.NewEngine(opts...)
	t.Cleanup(func() { eng.Close() })
	return eng
}

// refAnalyzeNetworks is the reference for Engine.AnalyzeNetworks: the
// FCFS, DM and EDF network tests applied to each network in turn.
func refAnalyzeNetworks(nets []profirt.Network) []profirt.BatchResult {
	out := make([]profirt.BatchResult, len(nets))
	for i, n := range nets {
		r := profirt.BatchResult{Index: i}
		r.FCFS.Schedulable, r.FCFS.Verdicts = core.FCFSSchedulable(n)
		r.DM.Schedulable, r.DM.Verdicts = core.DMSchedulable(n, core.DMOptions{})
		r.EDF.Schedulable, r.EDF.Verdicts = core.EDFSchedulableNet(n, core.EDFOptions{})
		out[i] = r
	}
	return out
}

// refAnalyzeTopologies is the reference for Engine.AnalyzeTopologies:
// topology.Analyze applied to each topology in turn.
func refAnalyzeTopologies(tops []profirt.Topology) []profirt.TopologyBatchResult {
	out := make([]profirt.TopologyBatchResult, len(tops))
	for i, top := range tops {
		r := profirt.TopologyBatchResult{Index: i}
		r.Result, r.Err = topology.Analyze(top, topology.Options{})
		out[i] = r
	}
	return out
}

// refSimulateBatch is the reference for Engine.SimulateBatch: each
// config simulated in turn under the batch's derived seed.
func refSimulateBatch(cfgs []profirt.SimConfig, seed int64) []profirt.SimBatchResult {
	out := make([]profirt.SimBatchResult, len(cfgs))
	for i, cfg := range cfgs {
		cfg.Seed = profibus.BatchSeed(seed, i)
		r := profirt.SimBatchResult{Index: i}
		r.Result, r.Err = profibus.Simulate(cfg)
		out[i] = r
	}
	return out
}

// analyzeNetworks runs Engine.AnalyzeNetworks, failing the test on error.
func analyzeNetworks(t testing.TB, eng *profirt.Engine, ctx context.Context, nets []profirt.Network) []profirt.BatchResult {
	t.Helper()
	out, err := eng.AnalyzeNetworks(ctx, nets, profirt.AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// analyzeTopologies runs Engine.AnalyzeTopologies, failing the test on
// error.
func analyzeTopologies(t testing.TB, eng *profirt.Engine, ctx context.Context, tops []profirt.Topology) []profirt.TopologyBatchResult {
	t.Helper()
	out, err := eng.AnalyzeTopologies(ctx, tops, profirt.TopologyAnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// sameTopologyResults compares topology batch results, matching errors
// by message (error values carry no identity worth comparing).
func sameTopologyResults(got, want []profirt.TopologyBatchResult) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d results, want %d", len(got), len(want))
	}
	for i := range want {
		if fmt.Sprint(want[i].Err) != fmt.Sprint(got[i].Err) {
			return fmt.Errorf("topology %d: error %v, want %v", i, got[i].Err, want[i].Err)
		}
		if want[i].Err == nil && !reflect.DeepEqual(got[i], want[i]) {
			return fmt.Errorf("topology %d: result diverged:\ngot:  %+v\nwant: %+v", i, got[i], want[i])
		}
	}
	return nil
}

func TestEngineEquivalenceAnalyzeNetworks(t *testing.T) {
	nets := equivNets(101, 40, 2)
	want := refAnalyzeNetworks(nets)
	for _, p := range enginePar() {
		eng := newEngine(t, profirt.WithParallelism(p))
		if got := analyzeNetworks(t, eng, context.Background(), nets); !reflect.DeepEqual(got, want) {
			t.Fatalf("parallelism %d: Engine.AnalyzeNetworks diverged from the sequential core loop", p)
		}
	}
	// A cached Engine must agree too (cache equivalence is proved in
	// cache_equiv_test.go; here we assert the Engine wires it through).
	eng := newEngine(t, profirt.WithCache(profirt.NewAnalysisCache(0)))
	if got := analyzeNetworks(t, eng, context.Background(), nets); !reflect.DeepEqual(got, want) {
		t.Fatal("cached Engine.AnalyzeNetworks diverged")
	}
	if eng.Cache().Stats().Misses == 0 {
		t.Fatal("Engine cache never consulted")
	}
}

func TestEngineEquivalenceAnalyzeTopologies(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	tops := make([]profirt.Topology, 0, 12)
	for i := 0; i < 6; i++ {
		tops = append(tops, equivTopology(rng))
	}
	tops = append(tops, tops[:6]...)
	want := refAnalyzeTopologies(tops)
	for _, p := range enginePar() {
		eng := newEngine(t, profirt.WithParallelism(p))
		if err := sameTopologyResults(analyzeTopologies(t, eng, context.Background(), tops), want); err != nil {
			t.Fatalf("parallelism %d: Engine.AnalyzeTopologies: %v", p, err)
		}
	}
}

func TestEngineRejectsNegativeMaxIterations(t *testing.T) {
	eng := profirt.NewEngine(profirt.WithParallelism(1))
	defer eng.Close()
	if _, err := eng.AnalyzeTopologies(context.Background(), nil, profirt.TopologyAnalyzeOptions{MaxIterations: -1}); err == nil {
		t.Fatal("negative MaxIterations accepted")
	}
}

func TestEngineEquivalenceAnalyzeHolistic(t *testing.T) {
	rng := rand.New(rand.NewSource(127))
	eng := profirt.NewEngine(profirt.WithParallelism(2), profirt.WithCache(profirt.NewAnalysisCache(0)))
	defer eng.Close()
	for trial := 0; trial < 10; trial++ {
		cfg := equivHolistic(rng, profirt.DM)
		want, errW := profirt.AnalyzeHolistic(cfg)
		got, errG := eng.AnalyzeHolistic(context.Background(), cfg)
		if (errW == nil) != (errG == nil) {
			t.Fatalf("trial %d: error mismatch: %v vs %v", trial, errG, errW)
		}
		if errW == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: Engine.AnalyzeHolistic diverged", trial)
		}
	}
}

// equivSimConfigs draws small simulator configurations with jitter
// active, so per-run seed derivation is on the tested path.
func equivSimConfigs(seed int64, n int) []profirt.SimConfig {
	rng := rand.New(rand.NewSource(seed))
	cfgs := make([]profirt.SimConfig, n)
	for i := range cfgs {
		p := workload.DefaultStreamSetParams()
		p.Masters, p.StreamsPerMaster = 1+rng.Intn(2), 1+rng.Intn(3)
		p.MaxJitter = 1_500
		_, cfg := workload.StreamSet(rng, p)
		cfg.Horizon = 150_000
		cfgs[i] = cfg
	}
	return cfgs
}

func TestEngineEquivalenceSimulateBatch(t *testing.T) {
	cfgs := equivSimConfigs(131, 12)
	want := refSimulateBatch(cfgs, 7)
	for _, p := range enginePar() {
		eng := newEngine(t, profirt.WithParallelism(p))
		got, err := eng.SimulateBatch(context.Background(), cfgs, profirt.SimulateOptions{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("parallelism %d: Engine.SimulateBatch diverged from the sequential Simulate loop", p)
		}
	}
	// Single-run methods agree with the batch's per-run seed contract.
	eng := profirt.NewEngine(profirt.WithParallelism(1))
	defer eng.Close()
	cfg := cfgs[3]
	cfg.Seed = profirt.SimBatchSeed(7, 3)
	single, err := eng.Simulate(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(single, want[3].Result) {
		t.Fatal("Engine.Simulate diverged from the batch run of the same config+seed")
	}
}

// engineCampaignManifest is a small grid (2 networks' worth of rows via
// two deadline scales, two policies, two trials).
const engineCampaignManifest = `{
  "name": "engine-equiv",
  "seed": 5,
  "trials": 2,
  "policies": ["fcfs", "dm"],
  "deadlineScales": [1.0, 0.5],
  "networks": [{"name": "cell", "network": {
    "ttr": 2000, "horizon": 250000,
    "masters": [
      {"addr": 1, "streams": [
        {"name": "a", "slave": 30, "high": true, "period": 20000, "deadline": 15000},
        {"name": "b", "slave": 30, "high": true, "period": 50000, "deadline": 40000}]}
    ],
    "slaves": [{"addr": 30, "tsdr": 30}]
  }}]
}`

func TestEngineEquivalenceRunCampaign(t *testing.T) {
	c, err := profirt.ParseCampaign([]byte(engineCampaignManifest))
	if err != nil {
		t.Fatal(err)
	}
	seq, err := newEngine(t, profirt.WithParallelism(1)).RunCampaign(context.Background(), c, profirt.CampaignOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := seq.Table.String()
	for _, p := range enginePar() {
		store, err := profirt.OpenResultStore(
			fmt.Sprintf("%s/c%d.jsonl", t.TempDir(), p), c.Hash[:])
		if err != nil {
			t.Fatal(err)
		}
		eng := profirt.NewEngine(profirt.WithParallelism(p), profirt.WithStore(store))
		res, err := eng.RunCampaign(context.Background(), c, profirt.CampaignOptions{})
		eng.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Table.String(); got != want {
			t.Fatalf("parallelism %d: Engine.RunCampaign table diverged:\n--- engine ---\n%s--- sequential ---\n%s", p, got, want)
		}
		if res.Executed != res.Jobs || res.Skipped != 0 {
			t.Fatalf("parallelism %d: unexpected counts %+v", p, res)
		}
		// A second run against the Engine's store restores everything.
		eng2 := profirt.NewEngine(profirt.WithParallelism(p), profirt.WithStore(store))
		warm, err := eng2.RunCampaign(context.Background(), c, profirt.CampaignOptions{})
		eng2.Close()
		if err != nil {
			t.Fatal(err)
		}
		if warm.Restored != warm.Jobs || warm.Table.String() != want {
			t.Fatalf("parallelism %d: warm Engine.RunCampaign diverged (%+v)", p, warm)
		}
		store.Close()
	}
}

func TestEngineEquivalenceRunExperiments(t *testing.T) {
	// One representative message-level experiment, quick size; a
	// parallelism-1 Engine is the reference.
	want := experimentTables(t, "E7")
	for _, p := range enginePar() {
		eng := newEngine(t, profirt.WithParallelism(p))
		res, err := eng.RunExperiments(context.Background(), []string{"E7"}, profirt.ExperimentOptions{Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 1 || res[0].ID != "E7" {
			t.Fatalf("parallelism %d: unexpected result set %+v", p, res)
		}
		if got := tableStrings(res[0].Tables); got != want {
			t.Fatalf("parallelism %d: Engine.RunExperiments tables diverged:\n--- engine ---\n%s--- sequential ---\n%s", p, got, want)
		}
	}
	// E12 at quick size is pinned byte-for-byte by the CLI golden; the
	// Engine must reproduce it in the CLI's plain layout.
	eng := newEngine(t)
	res, err := eng.RunExperiments(context.Background(), []string{"E12"}, profirt.ExperimentOptions{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for _, er := range res {
		fmt.Fprintf(&got, "## %s — %s (%s)\n\n", er.ID, er.Title, er.Anchor)
		for _, tb := range er.Tables {
			if err := profirt.RenderTable(&got, tb, "plain"); err != nil {
				t.Fatal(err)
			}
			got.WriteString("\n")
		}
	}
	golden, err := os.ReadFile("cmd/experiments/testdata/quick_e12_plain.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), golden) {
		t.Fatalf("Engine E12 diverged from quick_e12_plain.golden:\n%s", got.String())
	}
	if _, err := eng.RunExperiments(context.Background(), []string{"E99"}, profirt.ExperimentOptions{Quick: true}); err == nil {
		t.Fatal("unknown experiment id accepted")
	}
}

// TestEngineSharedUseUnderConcurrency drives one Engine from many
// goroutines mixing workloads — the deployment shape the redesign is
// for — and requires every caller to see exactly the sequential
// results. Under -race this is the integration-level data-race gate.
func TestEngineSharedUseUnderConcurrency(t *testing.T) {
	nets := equivNets(139, 24, 2)
	cfgs := equivSimConfigs(149, 8)
	wantNets := refAnalyzeNetworks(nets)
	wantSims := refSimulateBatch(cfgs, 3)

	eng := newEngine(t, profirt.WithParallelism(4), profirt.WithCache(profirt.NewAnalysisCache(0)))
	const callers = 6
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for w := 0; w < callers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			if w%2 == 0 {
				got, err := eng.AnalyzeNetworks(context.Background(), nets, profirt.AnalyzeOptions{})
				if err != nil {
					errs[w] = err
				} else if !reflect.DeepEqual(got, wantNets) {
					errs[w] = fmt.Errorf("caller %d: analysis diverged under concurrency", w)
				}
			} else {
				got, err := eng.SimulateBatch(context.Background(), cfgs, profirt.SimulateOptions{Seed: 3})
				if err != nil {
					errs[w] = err
				} else if !reflect.DeepEqual(got, wantSims) {
					errs[w] = fmt.Errorf("caller %d: simulation diverged under concurrency", w)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// experimentTables runs one experiment at quick size on a
// parallelism-1 Engine and renders its tables.
func experimentTables(t *testing.T, id string) string {
	t.Helper()
	res, err := newEngine(t, profirt.WithParallelism(1)).RunExperiments(context.Background(), []string{id}, profirt.ExperimentOptions{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	return tableStrings(res[0].Tables)
}

func tableStrings(tables []*profirt.Table) string {
	var sb strings.Builder
	for _, tb := range tables {
		sb.WriteString(tb.String())
		sb.WriteString("\n")
	}
	return sb.String()
}

func TestEngineCancellationMarksSkipped(t *testing.T) {
	nets := equivNets(151, 16, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eng := profirt.NewEngine(profirt.WithParallelism(2))
	defer eng.Close()
	res, err := eng.AnalyzeNetworks(ctx, nets, profirt.AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if !r.Skipped || r.Index != i {
			t.Fatalf("result %d not marked skipped after pre-cancel: %+v", i, r)
		}
	}
	if _, err := eng.AnalyzeHolistic(ctx, profirt.HolisticConfig{}); err == nil {
		t.Fatal("AnalyzeHolistic ignored a cancelled context")
	}
	if _, err := eng.Simulate(ctx, profirt.SimConfig{}); err == nil {
		t.Fatal("Simulate ignored a cancelled context")
	}
}

func TestEngineProgressAndRowSink(t *testing.T) {
	c, err := profirt.ParseCampaign([]byte(engineCampaignManifest))
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var events, rows int
	eng := profirt.NewEngine(
		profirt.WithParallelism(2),
		profirt.WithProgress(func(ev profirt.EngineEvent) {
			mu.Lock()
			if ev.Op == "campaign" {
				events++
			}
			mu.Unlock()
		}),
		profirt.WithRowSink(func(ev profirt.TableRowEvent) {
			mu.Lock()
			rows++
			mu.Unlock()
		}),
	)
	defer eng.Close()
	res, err := eng.RunCampaign(context.Background(), c, profirt.CampaignOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if events != res.Jobs {
		t.Fatalf("progress reported %d events for %d jobs", events, res.Jobs)
	}
	if rows != c.Rows() {
		t.Fatalf("row sink saw %d rows, want %d", rows, c.Rows())
	}
}
