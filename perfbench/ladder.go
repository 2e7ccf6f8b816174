package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"profirt"
	"profirt/internal/campaign"
	"profirt/internal/configfile"
	"profirt/internal/core"
	"profirt/internal/des"
	"profirt/internal/memo"
	"profirt/internal/obs"
	"profirt/internal/pool"
	"profirt/internal/profibus"
	"profirt/internal/serve"
)

// probeSet is the input of the layer ladder: the workload's own
// networks, the sequence of networks its analyses look up, and one of
// its requests for the serving layer.
type probeSet struct {
	specs  []netSpec
	replay []core.Network
	path   string
	body   []byte
}

// Ladder budgets: each timed step repeats until it has run this long
// (and at least minReps times).
const (
	stepBudget = 250 * time.Millisecond
	minReps    = 3
	// simBudget caps the simulated ticks of the profibus and des steps.
	simBudget = 80_000_000
	// ladderCampaignNets caps the networks of the ladder's campaign.
	ladderCampaignNets = 8
	experimentReps     = 3
)

// repeat runs fn until the step budget is spent (at least minReps
// times; once in smoke mode) and returns the per-repetition seconds.
func repeat(e *env, fn func()) []float64 {
	var secs []float64
	start := time.Now()
	for len(secs) < minReps || time.Since(start) < stepBudget {
		t0 := time.Now()
		fn()
		secs = append(secs, time.Since(t0).Seconds())
		if e.smoke {
			break
		}
	}
	return secs
}

// runLadder times every layer through its public functions on the
// probe set. fanout is the workload's mean pool submission width.
func runLadder(ctx context.Context, e *env, p probeSet, fanout int) error {
	steps := []struct {
		name string
		fn   func() error
	}{
		{"serve", func() error { return ladderServe(ctx, e, p) }},
		{"pool", func() error { ladderPool(ctx, e, fanout); return nil }},
		{"core+memo", func() error { ladderAnalysis(e, p); return nil }},
		{"profibus+des", func() error { return ladderSim(e, p) }},
		{"campaign+store", func() error { return ladderCampaign(ctx, e, p) }},
		{"experiments", func() error { return ladderExperiments(ctx, e) }},
	}
	for _, s := range steps {
		t0 := time.Now()
		if err := s.fn(); err != nil {
			return fmt.Errorf("ladder %s: %w", s.name, err)
		}
		e.logf("ladder %s: %.2fs", s.name, time.Since(t0).Seconds())
	}
	return nil
}

// ladderServe times the serving layer on one of the workload's
// requests: decode and build, encode of the reply, and the handler
// itself served in process with -trace-dir's span export, whose root
// span self time is the layer's own share of a request.
func ladderServe(ctx context.Context, e *env, p probeSet) error {
	eng := profirt.NewEngine(profirt.WithCache(profirt.NewAnalysisCache(0)))
	defer eng.Close()

	var reply any
	decode := func() error {
		var fs []configfile.File
		switch p.path {
		case analyzePath:
			var req serve.AnalyzeNetworksRequest
			if err := json.Unmarshal(p.body, &req); err != nil {
				return err
			}
			fs = req.Networks
		case simulatePath:
			var req serve.SimulateBatchRequest
			if err := json.Unmarshal(p.body, &req); err != nil {
				return err
			}
			fs = req.Networks
		}
		_, _, err := buildAll(fs)
		return err
	}
	if err := decode(); err != nil {
		return err
	}
	dec := repeat(e, func() { _ = decode() })
	e.set("serve.decode_us_per_req", median(dec)*1e6)

	switch p.path {
	case analyzePath:
		var req serve.AnalyzeNetworksRequest
		_ = json.Unmarshal(p.body, &req) // decoded above
		ns, _, _ := buildAll(req.Networks)
		res, err := eng.AnalyzeNetworks(ctx, ns, profirt.AnalyzeOptions{})
		if err != nil {
			return err
		}
		reply = serve.AnalyzeNetworksResponse{Results: res}
	case simulatePath:
		var req serve.SimulateBatchRequest
		_ = json.Unmarshal(p.body, &req)
		_, cs, _ := buildAll(req.Networks)
		res, err := eng.SimulateBatch(ctx, cs, profirt.SimulateOptions{Seed: req.Seed})
		if err != nil {
			return err
		}
		reply = serve.SimulateBatchResponse{Results: serve.SimResults(res)}
	}
	enc := repeat(e, func() {
		var buf bytes.Buffer
		_ = json.NewEncoder(&buf).Encode(reply)
	})
	e.set("serve.encode_us_per_req", median(enc)*1e6)

	dir, err := ensureTraceDir(e, "ladder-serve-traces")
	if err != nil {
		return err
	}
	srv := serve.New(eng, serve.Options{TraceDir: dir})
	h := srv.Handler()
	var failed error
	repeat(e, func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, p.path, bytes.NewReader(p.body)))
		if rec.Code != http.StatusOK && failed == nil {
			failed = fmt.Errorf("in-process %s: status %d", p.path, rec.Code)
		}
	})
	if failed != nil {
		return failed
	}
	for _, ep := range srv.Metrics().Server.Endpoints {
		if ep.Endpoint == p.path {
			e.set("serve.endpoint_ms_mean", float64(ep.Latency.Mean())/float64(time.Millisecond))
		}
	}
	traces, _, err := readTraceDir(dir, nil)
	if err != nil {
		return err
	}
	var self []float64
	for _, tr := range traces {
		self = append(self, selfTimesUs(tr, "request ")...)
	}
	e.set("serve.request_self_us_p50", median(self))
	return nil
}

// ladderPool times Shared.RunJobs of empty jobs at the workload's
// fan-out (at least two, the smallest that reaches the workers): the
// pool's own dispatch cost per job.
func ladderPool(ctx context.Context, e *env, fanout int) {
	fanout = max(fanout, 2)
	p := pool.NewShared(runtime.GOMAXPROCS(0))
	defer p.Close()
	const batches = 200
	secs := repeat(e, func() {
		for b := 0; b < batches; b++ {
			p.RunJobs(ctx, 0, fanout, func(context.Context, int) {})
		}
	})
	e.set("pool.dispatch_ns_per_job", median(secs)*1e9/float64(batches*fanout))
}

// ladderAnalysis times the core analyses uncached and through the
// memo cache, on the probe networks.
func ladderAnalysis(e *env, p probeSet) {
	ns := nets(p.specs)

	// Exact counts: verdicts, and lookups of the sequential replay on
	// an empty cache.
	unsched := 0
	for _, n := range ns {
		for _, ok := range analyzeAll(n) {
			if !ok {
				unsched++
			}
		}
	}
	e.setCount("core.unschedulable_ratio", float64(unsched)/float64(3*len(ns)))
	replay := memo.New(0)
	for _, n := range p.replay {
		memo.DMSchedulable(replay, n, core.DMOptions{})
		memo.EDFSchedulableNet(replay, n, core.EDFOptions{})
	}
	st := replay.Stats()
	e.setCount("memo.lookups_per_net", float64(st.Hits+st.Misses)/float64(len(p.replay)))

	// Uncached core, timed per call, over enough passes for the p99 of
	// EDF to have ten samples beyond it.
	var fcfs, dm, edf []float64
	for len(edf) < minSamplesFor(99) {
		for _, n := range ns {
			t0 := time.Now()
			core.FCFSSchedulable(n)
			t1 := time.Now()
			core.DMSchedulable(n, core.DMOptions{})
			t2 := time.Now()
			core.EDFSchedulableNet(n, core.EDFOptions{})
			t3 := time.Now()
			fcfs = append(fcfs, us(t1.Sub(t0)))
			dm = append(dm, us(t2.Sub(t1)))
			edf = append(edf, us(t3.Sub(t2)))
		}
		if e.smoke {
			break
		}
	}
	e.set("core.fcfs_us_per_net", mean(fcfs))
	e.set("core.dm_us_per_net", mean(dm))
	e.set("core.edf_us_per_net", mean(edf))
	e.set("core.edf_us_p99", percentile(edf, 99))

	// Through the cache: every probe network misses an empty cache,
	// then hits the warm one.
	perNet := func(secs []float64) float64 { return median(secs) * 1e6 / float64(len(ns)) }
	viaMemo := func(c *memo.Cache) {
		for _, n := range ns {
			memo.DMSchedulable(c, n, core.DMOptions{})
			memo.EDFSchedulableNet(c, n, core.EDFOptions{})
		}
	}
	var missSecs []float64
	for r := 0; r < minReps || (sum(missSecs) < stepBudget.Seconds() && !e.smoke); r++ {
		c := memo.New(0)
		t0 := time.Now()
		viaMemo(c)
		missSecs = append(missSecs, time.Since(t0).Seconds())
	}
	warm := memo.New(0)
	viaMemo(warm)
	before := warm.Stats()
	hit := repeat(e, func() { viaMemo(warm) })
	after := warm.Stats()
	lookups := float64(after.Hits+after.Misses-before.Hits-before.Misses) / float64(len(hit))
	e.set("memo.hit_us_per_net", perNet(hit))
	e.set("memo.lookup_ns_mean", median(hit)*1e9/lookups)
	e.set("memo.miss_overhead_us_per_net", perNet(missSecs)-mean(dm)-mean(edf))
}

// analyzeAll returns the FCFS, DM and EDF verdicts of n.
func analyzeAll(n core.Network) [3]bool {
	f, _ := core.FCFSSchedulable(n)
	d, _ := core.DMSchedulable(n, core.DMOptions{})
	x, _ := core.EDFSchedulableNet(n, core.EDFOptions{})
	return [3]bool{f, d, x}
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// simProbe picks the probe configurations the simulation steps run:
// a prefix of the probe set within simBudget simulated ticks.
func simProbe(e *env, p probeSet) []profibus.Config {
	var out []profibus.Config
	var ticks int64
	for _, s := range p.specs {
		if len(out) > 0 && (ticks+int64(s.cfg.Horizon) > simBudget || (e.smoke && len(out) >= 2)) {
			break
		}
		out = append(out, s.cfg)
		ticks += int64(s.cfg.Horizon)
	}
	return out
}

// simCounts are the exact counts of one pass over the probe configs.
type simCounts struct{ cycles, tokenPasses, released, missed int64 }

// ladderSim times profibus.Simulate on the probe configurations and
// replays their releases through the DES calendar two ways.
func ladderSim(e *env, p probeSet) error {
	cs := simProbe(e, p)
	var first *simCounts
	var secs []float64
	for r := 0; r < 2; r++ {
		var c simCounts
		t0 := time.Now()
		for _, cfg := range cs {
			res, err := profibus.Simulate(cfg)
			if err != nil {
				return err
			}
			c.tokenPasses += res.TokenPasses
			for _, m := range res.PerMaster {
				c.cycles += m.HighCycles + m.LowCycles
				for _, s := range m.PerStream {
					c.released += s.Released
					c.missed += s.Missed
				}
			}
		}
		secs = append(secs, time.Since(t0).Seconds())
		if first == nil {
			first = &c
		} else if c != *first {
			e.led.fail("profibus: two simulations of the same configs differ: %+v vs %+v", *first, c)
		}
	}
	e.set("profibus.sim_ms_per_net", median(secs)*1e3/float64(len(cs)))
	e.set("profibus.ns_per_cycle", median(secs)*1e9/float64(first.cycles))
	e.setCount("profibus.cycles", float64(first.cycles))
	e.setCount("profibus.token_passes", float64(first.tokenPasses))
	e.setCount("profibus.miss_ratio", ratio(first.missed, first.released))

	deep, shallow, events := desReplay(e, cs)
	e.set("des.ns_per_event_deep", deep)
	e.set("des.ns_per_event_shallow", shallow)
	e.setCount("des.events", float64(events))
	return nil
}

// desReplay pushes every stream release of the configs through a
// des.Engine: deep schedules all of a run's releases at t=0, as the
// simulator does; shallow keeps one pending release per stream and
// schedules the next when it fires. Both fire the same events; the
// result is ns per fired event for each, and the event count.
func desReplay(e *env, cs []profibus.Config) (deepNs, shallowNs float64, events int64) {
	type stream struct{ offset, period, horizon des.Ticks }
	runs := make([][]stream, len(cs))
	for i, cfg := range cs {
		for _, m := range cfg.Masters {
			for _, s := range m.Streams {
				runs[i] = append(runs[i], stream{s.Offset, s.Period, cfg.Horizon})
			}
		}
	}
	var eng des.Engine
	var cur []stream
	deepPass := func() int64 {
		var n int64
		for _, ss := range runs {
			eng.Reset()
			eng.SetDispatch(func(des.Payload) {})
			for si, s := range ss {
				for t := s.offset; t < s.horizon; t += s.period {
					eng.SchedulePayload(t, 0, des.Payload{X: int32(si)})
				}
			}
			eng.Run(ss[0].horizon)
			n += eng.Processed
		}
		return n
	}
	shallowPass := func() int64 {
		var n int64
		for _, ss := range runs {
			cur = ss
			eng.Reset()
			eng.SetDispatch(func(p des.Payload) {
				s := cur[p.X]
				if next := p.A + s.period; next < s.horizon {
					eng.SchedulePayload(next, 0, des.Payload{X: p.X, A: next})
				}
			})
			for si, s := range ss {
				if s.offset < s.horizon {
					eng.SchedulePayload(s.offset, 0, des.Payload{X: int32(si), A: s.offset})
				}
			}
			eng.Run(ss[0].horizon)
			n += eng.Processed
		}
		return n
	}
	events = deepPass()
	if got := shallowPass(); got != events {
		e.led.fail("des: shallow replay fired %d events, deep %d", got, events)
	}
	deep := repeat(e, func() { deepPass() })
	shallow := repeat(e, func() { shallowPass() })
	return median(deep) * 1e9 / float64(events), median(shallow) * 1e9 / float64(events), events
}

// ladderCampaign runs a small campaign over the probe networks the way
// cmd/campaign does — cold into a fresh store, then warm from the
// reopened store — and times the store's operations directly.
func ladderCampaign(ctx context.Context, e *env, p probeSet) error {
	n := min(ladderCampaignNets, len(p.specs))
	if e.smoke {
		n = min(2, n)
	}
	m := campaign.Manifest{Name: "ladder", Seed: e.seed, Trials: 2, Horizon: 200_000}
	for i := 0; i < n; i++ {
		f := p.specs[i].file
		m.Networks = append(m.Networks, campaign.NetworkSpec{Name: fmt.Sprintf("n%d", i), Network: &f})
	}
	c, err := profirt.NewCampaign(m)
	if err != nil {
		return err
	}
	dir := filepath.Join(e.tmp, "ladder-campaign")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, "results.jsonl")

	tracer := obs.NewTracer("ladder-campaign", nil)
	cold, err := runCampaign(obs.WithTracer(ctx, tracer), c, path, nil)
	if err != nil {
		return err
	}
	e.set("campaign.row_self_us", median(selfTimesUs(spansOf(tracer.Events()), "campaign.row")))
	e.setCount("campaign.executed", float64(cold.res.Executed))
	warm, err := runCampaign(ctx, c, path, nil)
	if err != nil {
		return err
	}
	e.setCount("campaign.restored", float64(warm.res.Restored))
	if cold.res.Executed != len(c.Jobs()) || warm.res.Restored != len(c.Jobs()) || !bytes.Equal(cold.table, warm.table) {
		e.led.fail("ladder campaign: cold %d executed, warm %d restored of %d, tables equal %v",
			cold.res.Executed, warm.res.Restored, len(c.Jobs()), bytes.Equal(cold.table, warm.table))
	}
	// Untraced passes for the rates: cold into a fresh store, warm from
	// the filled one.
	jobs := float64(len(c.Jobs()))
	coldPath := filepath.Join(dir, "cold.jsonl")
	var runErr error
	coldSecs := repeat(e, func() {
		if err := os.Remove(coldPath); err != nil && !os.IsNotExist(err) {
			runErr = err
		}
		if _, err := runCampaign(ctx, c, coldPath, nil); err != nil {
			runErr = err
		}
	})
	warmSecs := repeat(e, func() {
		if _, err := runCampaign(ctx, c, path, nil); err != nil {
			runErr = err
		}
	})
	if runErr != nil {
		return runErr
	}
	e.set("campaign.cold_jobs_per_s", jobs/median(coldSecs))
	e.set("campaign.warm_jobs_per_s", jobs/median(warmSecs))
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	e.set("memo.store_bytes_per_job", float64(info.Size())/float64(len(c.Jobs())))

	open := repeat(e, func() {
		s, err := profirt.OpenResultStore(path, c.Hash[:])
		if err == nil {
			s.Close()
		}
	})
	e.set("memo.store_open_ms", median(open)*1e3)

	s, err := profirt.OpenResultStore(path, c.Hash[:])
	if err != nil {
		return err
	}
	defer s.Close()
	keys := make([]memo.Key, 0, len(c.Jobs()))
	vals := make([][]byte, 0, len(c.Jobs()))
	for _, j := range c.Jobs() {
		v, ok := s.Get(j.Key)
		if !ok {
			return fmt.Errorf("store lost job %d", j.Index)
		}
		keys, vals = append(keys, j.Key), append(vals, v)
	}
	get := repeat(e, func() {
		for _, k := range keys {
			s.Get(k)
		}
	})
	e.set("memo.store_get_us", median(get)*1e6/float64(len(keys)))

	var putSecs []float64
	for r := 0; r < minReps; r++ {
		pp := filepath.Join(dir, fmt.Sprintf("put-%d.jsonl", r))
		ps, err := profirt.OpenResultStore(pp, c.Hash[:])
		if err != nil {
			return err
		}
		t0 := time.Now()
		for i, k := range keys {
			if err := ps.Put(k, vals[i]); err != nil {
				ps.Close()
				return err
			}
		}
		putSecs = append(putSecs, time.Since(t0).Seconds())
		if err := ps.Close(); err != nil {
			return err
		}
	}
	e.set("memo.store_put_us", median(putSecs)*1e6/float64(len(keys)))
	return nil
}

// campaignRun is one Engine.RunCampaign outcome with its rendered table.
type campaignRun struct {
	res   profirt.CampaignRunResult
	table []byte
}

// runCampaign runs c against the store at path with an Engine
// configured as cmd/campaign configures it, booking the Engine's
// counters into tot when it is non-nil.
func runCampaign(ctx context.Context, c *profirt.Campaign, path string, tot *engineTotals) (campaignRun, error) {
	store, err := profirt.OpenResultStore(path, c.Hash[:])
	if err != nil {
		return campaignRun{}, err
	}
	eng := profirt.NewEngine(
		profirt.WithParallelism(runtime.GOMAXPROCS(0)),
		profirt.WithStore(store),
		profirt.WithCache(profirt.NewAnalysisCache(0)),
	)
	res, err := eng.RunCampaign(ctx, c, profirt.CampaignOptions{})
	if tot != nil {
		tot.add(profirt.EngineStats{}, eng.Stats())
	}
	eng.Close()
	if cerr := store.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return campaignRun{}, err
	}
	var buf bytes.Buffer
	if err := profirt.RenderTable(&buf, res.Table, "md"); err != nil {
		return campaignRun{}, err
	}
	return campaignRun{res: res, table: buf.Bytes()}, nil
}

// ladderExperiments times each of E1–E13 in quick mode on a fresh
// Engine, as `experiments -quick -id Ek` runs it.
func ladderExperiments(ctx context.Context, e *env) error {
	reps := experimentReps
	if e.smoke {
		reps = 1
	}
	ms := map[string][]float64{}
	for r := 0; r < reps; r++ {
		for _, x := range profirt.Experiments() {
			t0 := time.Now()
			if _, err := runExperiment(ctx, []string{x.ID}, e.seed, 0, nil); err != nil {
				return err
			}
			ms[x.ID] = append(ms[x.ID], us(time.Since(t0))/1e3)
		}
	}
	for _, id := range sortedKeys(ms) {
		e.set("experiments."+id+"_ms", median(ms[id]))
	}
	return nil
}
