package profibus

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"profirt/internal/ap"
	"profirt/internal/fdl"
	"profirt/internal/pool"
)

// batchConfig builds a small two-master network for the batch tests.
func batchConfig(ttr Ticks, seed int64) Config {
	return Config{
		Bus:     fdl.DefaultBusParams(),
		TTR:     ttr,
		Horizon: 200_000,
		Seed:    seed,
		Jitter:  JitterRandom,
		Masters: []MasterConfig{
			{Addr: 1, Dispatcher: ap.DM, Streams: []StreamConfig{
				{Name: "a", Slave: 30, High: true, Period: 20_000, Deadline: 15_000, Jitter: 1_000},
				{Name: "b", Slave: 30, High: true, Period: 50_000, Deadline: 40_000, Jitter: 1_000},
			}},
			{Addr: 2, Dispatcher: ap.DM, Streams: []StreamConfig{
				{Name: "c", Slave: 31, High: true, Period: 30_000, Deadline: 25_000, Jitter: 500},
			}},
		},
		Slaves: []SlaveConfig{{Addr: 30, TSDR: 30}, {Addr: 31, TSDR: 60}},
	}
}

func batchConfigs(n int) []Config {
	cfgs := make([]Config, n)
	for i := range cfgs {
		cfgs[i] = batchConfig(Ticks(2_000+100*(i%5)), 0)
	}
	return cfgs
}

// renderBatch flattens the observable outcome of a batch for byte-level
// comparison.
func renderBatch(results []BatchResult) string {
	out := ""
	for _, r := range results {
		out += fmt.Sprintf("%d skip=%v err=%v", r.Index, r.Skipped, r.Err)
		for _, m := range r.Result.PerMaster {
			out += fmt.Sprintf(" trr=%d", m.WorstTRR)
			for _, s := range m.PerStream {
				out += fmt.Sprintf(" (%d %d %d %d)", s.Released, s.Completed, s.Missed, s.WorstResponse)
			}
		}
		out += "\n"
	}
	return out
}

// TestSimulateBatchParallelismDeterminism is the acceptance-criterion
// regression: with random jitter active (so the per-run seeds matter),
// the batch outcome must be byte-identical at pool widths 1, 2 and
// GOMAXPROCS.
func TestSimulateBatchParallelismDeterminism(t *testing.T) {
	cfgs := batchConfigs(12)
	var want string
	for _, par := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		p := pool.NewShared(par)
		got := renderBatch(SimulateBatch(cfgs, BatchOptions{Pool: p, Seed: 11}))
		p.Close()
		if want == "" {
			want = got
		} else if got != want {
			t.Fatalf("batch differs at parallelism %d:\n--- got ---\n%s--- want ---\n%s", par, got, want)
		}
	}
}

// TestSimulateBatchSeedDerivation pins the per-run seed contract: run i
// behaves exactly like a direct Simulate of the config with Seed
// replaced by BatchSeed(base, i), ConfigSeeds uses the config verbatim,
// and distinct indices get distinct seeds.
func TestSimulateBatchSeedDerivation(t *testing.T) {
	p := pool.NewShared(1)
	defer p.Close()
	cfgs := batchConfigs(4)
	out := SimulateBatch(cfgs, BatchOptions{Pool: p, Seed: 99})
	for i, r := range out {
		want := cfgs[i]
		want.Seed = BatchSeed(99, i)
		direct, err := Simulate(want)
		if err != nil {
			t.Fatal(err)
		}
		if renderBatch([]BatchResult{r}) != renderBatch([]BatchResult{{Index: r.Index, Result: direct}}) {
			t.Fatalf("run %d does not match direct simulation under the derived seed", i)
		}
	}

	seen := map[int64]bool{}
	for i := 0; i < 1_000; i++ {
		s := BatchSeed(99, i)
		if seen[s] {
			t.Fatalf("BatchSeed collision at index %d", i)
		}
		seen[s] = true
	}

	pinned := batchConfigs(2)
	pinned[0].Seed, pinned[1].Seed = 5, 5
	cfgOut := SimulateBatch(pinned, BatchOptions{Pool: p, ConfigSeeds: true})
	d0, _ := Simulate(pinned[0])
	if renderBatch(cfgOut[:1]) != renderBatch([]BatchResult{{Index: 0, Result: d0}}) {
		t.Fatal("ConfigSeeds did not use the config's own seed")
	}
}

func TestSimulateBatchCancellation(t *testing.T) {
	cfgs := batchConfigs(64)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := pool.NewShared(2)
	defer p.Close()
	out := SimulateBatch(cfgs, BatchOptions{Pool: p, Context: ctx})
	for _, r := range out {
		if !r.Skipped {
			t.Fatal("cancelled batch ran a job")
		}
	}
}

func TestSimulateBatchOnResultAndErrors(t *testing.T) {
	cfgs := batchConfigs(6)
	cfgs[3].TTR = 0 // invalid: Simulate must reject it
	var mu sync.Mutex
	seen := map[int]bool{}
	p := pool.NewShared(0)
	defer p.Close()
	out := SimulateBatch(cfgs, BatchOptions{Pool: p, OnResult: func(r BatchResult) {
		mu.Lock()
		seen[r.Index] = true
		mu.Unlock()
	}})
	if len(seen) != len(cfgs) {
		t.Fatalf("OnResult saw %d of %d runs", len(seen), len(cfgs))
	}
	if out[3].Err == nil {
		t.Fatal("invalid config produced no error")
	}
	for i, r := range out {
		if i != 3 && (r.Err != nil || r.Skipped) {
			t.Fatalf("run %d: err=%v skip=%v", i, r.Err, r.Skipped)
		}
	}
}
