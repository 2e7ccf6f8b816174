package profirt_test

import (
	"context"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"profirt"
)

// TestEngineReentrantCallbacks pins the Engine's documented callback
// guarantee: calling back into the Engine from a callback that runs on
// a pool worker completes, because the nested call runs inline on that
// worker instead of queueing for workers that are all busy. A 2-worker
// Engine runs a SimulateBatch whose OnResult analyses networks; once
// the first OnResult holds one worker, a RunCampaign whose row sink
// simulates configs starts. The first row sink (necessarily on the
// other worker) makes its nested call and then waits for the first
// OnResult to make its own, so each nested call is made while both
// workers are inside callbacks. Queued nested calls would deadlock.
func TestEngineReentrantCallbacks(t *testing.T) {
	c, err := profirt.ParseCampaign([]byte(engineCampaignManifest))
	if err != nil {
		t.Fatal(err)
	}
	nets := equivNets(181, 4, 1)
	cfgs := equivSimConfigs(191, 3)

	simEntered, rowNested, simNested := make(chan struct{}), make(chan struct{}), make(chan struct{})
	var firstSim, firstRow atomic.Bool
	var nested atomic.Int64
	var mu sync.Mutex
	var innerNets [][]profirt.BatchResult
	var innerSims [][]profirt.SimBatchResult
	var innerErrs []error

	var eng *profirt.Engine
	simulateNested := func() {
		nested.Add(1)
		got, err := eng.SimulateBatch(context.Background(), cfgs, profirt.SimulateOptions{Seed: 9})
		mu.Lock()
		innerSims = append(innerSims, got)
		innerErrs = append(innerErrs, err)
		mu.Unlock()
	}
	analyzeNested := func() {
		nested.Add(1)
		got, err := eng.AnalyzeNetworks(context.Background(), nets, profirt.AnalyzeOptions{})
		mu.Lock()
		innerNets = append(innerNets, got)
		innerErrs = append(innerErrs, err)
		mu.Unlock()
	}
	// Closed by hand at the end: a deadlocked Engine would hang Close,
	// so a failed run must not reach it.
	eng = profirt.NewEngine(
		profirt.WithParallelism(2),
		profirt.WithRowSink(func(profirt.TableRowEvent) {
			simulateNested()
			if firstRow.CompareAndSwap(false, true) {
				close(rowNested)
				<-simNested
			}
		}),
	)
	wantNets := analyzeNetworks(t, eng, context.Background(), nets)
	wantSims, err := eng.SimulateBatch(context.Background(), cfgs, profirt.SimulateOptions{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	before := eng.Stats().Pool.InlineSubmissions

	var simRes []profirt.SimBatchResult
	var campRes profirt.CampaignRunResult
	var simErr, campErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			simRes, simErr = eng.SimulateBatch(context.Background(), equivSimConfigs(193, 4), profirt.SimulateOptions{
				OnResult: func(profirt.SimBatchResult) {
					if firstSim.CompareAndSwap(false, true) {
						close(simEntered)
						<-rowNested
						analyzeNested()
						close(simNested)
						return
					}
					analyzeNested()
				},
			})
		}()
		<-simEntered
		go func() {
			defer wg.Done()
			campRes, campErr = eng.RunCampaign(context.Background(), c, profirt.CampaignOptions{})
		}()
		wg.Wait()
	}()
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatal("re-entrant Engine calls from worker callbacks deadlocked")
	}
	defer eng.Close()

	if simErr != nil || campErr != nil {
		t.Fatalf("outer calls failed: simulate %v, campaign %v", simErr, campErr)
	}
	for _, r := range simRes {
		if r.Err != nil || r.Skipped {
			t.Fatalf("outer run %d: err=%v skipped=%v", r.Index, r.Err, r.Skipped)
		}
	}
	if campRes.Executed != campRes.Jobs {
		t.Fatalf("campaign executed %d of %d jobs", campRes.Executed, campRes.Jobs)
	}
	for _, err := range innerErrs {
		if err != nil {
			t.Fatalf("nested call failed: %v", err)
		}
	}
	if len(innerNets) != len(simRes) || len(innerSims) != c.Rows() {
		t.Fatalf("nested calls: %d analyses for %d runs, %d simulations for %d rows",
			len(innerNets), len(simRes), len(innerSims), c.Rows())
	}
	for i, got := range innerNets {
		if !reflect.DeepEqual(got, wantNets) {
			t.Fatalf("nested AnalyzeNetworks %d diverged from a direct call", i)
		}
	}
	for i, got := range innerSims {
		if !reflect.DeepEqual(got, wantSims) {
			t.Fatalf("nested SimulateBatch %d diverged from a direct call", i)
		}
	}
	if got := eng.Stats().Pool.InlineSubmissions - before; got != nested.Load() {
		t.Fatalf("InlineSubmissions grew by %d, want one per nested call (%d)", got, nested.Load())
	}
}
