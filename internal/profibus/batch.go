package profibus

import (
	"context"
	"encoding/binary"
	"hash/fnv"

	"profirt/internal/pool"
)

// This file is the simulation counterpart of the root package's
// Engine.AnalyzeNetworks: many independent network simulations fanned
// out on the shared bounded worker pool, with per-run seed derivation that makes
// the whole batch a pure function of (configs, base seed) — never of
// scheduling order — so results are byte-identical at any parallelism.

// BatchOptions tunes SimulateBatch.
type BatchOptions struct {
	// Pool runs the batch; required. Concurrent batches share its one
	// bounded worker set (fair round-robin admission), and results are
	// byte-identical at any pool width.
	Pool *pool.Shared
	// Context cancels the batch early; nil means context.Background().
	// Runs not yet started when the context is done are returned with
	// Skipped set; in-flight simulations complete.
	Context context.Context
	// Seed is the batch base seed. Unless ConfigSeeds is set, run i
	// simulates cfgs[i] with its Seed field replaced by
	// Seed ⊕ FNV-1a(i) (see BatchSeed), so every run draws from an
	// independent deterministic stream regardless of the configs'
	// own Seed values.
	Seed int64
	// ConfigSeeds, when set, disables the per-run derivation: each run
	// uses its config's Seed verbatim. The campaign engine uses this to
	// pin a job's seed to its position in the full campaign grid, so a
	// resumed subset replays the exact seeds of the uninterrupted run.
	ConfigSeeds bool
	// OnResult, when non-nil, receives each run's result the moment its
	// simulation completes. It is called concurrently from worker
	// goroutines (never after SimulateBatch returns) and must be safe
	// for that; keep it cheap. Skipped runs are not reported.
	OnResult func(BatchResult)
}

// BatchResult is SimulateBatch's outcome for one configuration.
type BatchResult struct {
	// Index is the run's position in the input slice.
	Index int
	// Skipped marks runs left unevaluated after cancellation.
	Skipped bool
	// Err reports a configuration the simulator rejected; Result is
	// zero then.
	Err error
	// Result is the simulation outcome.
	Result Result
}

// BatchSeed derives run index's seed from the batch base seed:
// base ⊕ FNV-1a(index). The construction mirrors the experiment
// harness's cell seeds and the topology simulator's segment seeds, so
// a run's random stream depends only on (base, index).
func BatchSeed(base int64, index int) int64 {
	h := fnv.New64a()
	var idx [8]byte
	binary.LittleEndian.PutUint64(idx[:], uint64(index))
	h.Write(idx[:])
	return base ^ int64(h.Sum64())
}

// SimulateBatch runs many network simulations concurrently on
// opts.Pool. Results are returned in input order: out[i] describes
// cfgs[i] simulated under the derived (or, with ConfigSeeds, the
// configured) seed. Every run owns its full configuration and seed, so
// the batch is deterministic regardless of the pool width —
// byte-identical at 1, 2 or GOMAXPROCS workers. Cancel via
// opts.Context to stop early; remaining runs come back with Skipped
// set.
func SimulateBatch(cfgs []Config, opts BatchOptions) []BatchResult {
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	out := make([]BatchResult, len(cfgs))
	for i := range out {
		out[i] = BatchResult{Index: i, Skipped: true}
	}
	opts.Pool.RunJobs(ctx, 0, len(cfgs), func(_ context.Context, i int) {
		if ctx.Err() != nil {
			return
		}
		cfg := cfgs[i]
		if !opts.ConfigSeeds {
			cfg.Seed = BatchSeed(opts.Seed, i)
		}
		r := BatchResult{Index: i}
		r.Result, r.Err = Simulate(cfg)
		out[i] = r
		if opts.OnResult != nil {
			opts.OnResult(r)
		}
	})
	return out
}
