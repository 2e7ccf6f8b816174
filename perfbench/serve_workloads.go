package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sort"

	"profirt"
	"profirt/internal/configfile"
	"profirt/internal/core"
	"profirt/internal/profibus"
	"profirt/internal/serve"
	"profirt/internal/timeunit"
)

const (
	analyzePath     = "/v1/analyze/networks"
	simulatePath    = "/v1/simulate/batch"
	analyzeHotSet   = 64
	analyzePerReq   = 8 // hot networks per request, and as many fresh ones
	analyzeReplay   = 32
	analyzeWarmReqs = 32
	// A few generated networks cost DM and EDF up to 300 times the
	// median. With 4096 bases each recurs in well under 1% of a run's
	// requests, so the p99 reflects how common such networks are rather
	// than whether one seed drew one.
	analyzeFreshBases = 4096
	simulateBodies    = 40
	simulatePerReq    = 2
	simulateHorizon   = 4_000_000
	simulateWarmReqs  = 8
)

// The serve workloads' 4-master × 4-stream networks have periods of
// 30k–120k bit times: nearly all fail the FCFS bound and about half
// pass DM and EDF, so every verdict is a real question.
var (
	analyzeShape = shape{masters: 4, streams: 4, periodMin: 30_000, periodMax: 120_000,
		jitter: profibus.JitterNone}
	simulateShape = shape{masters: 4, streams: 4, periodMin: 30_000, periodMax: 120_000,
		jitter: profibus.JitterRandom, horizon: simulateHorizon}
)

// analyzeInputs generates serve-analyze's requests. Each holds
// analyzePerReq networks of a per-seed hot set, which the server's
// cache answers after warm-up, and analyzePerReq fresh networks, which
// it must analyse, in shuffled order. A fresh network is one of
// analyzeFreshBases generated networks with every deadline lowered by
// a per-use number of ticks, so no two requests share one (the cache
// keys on deadlines) while the client does almost no work per request.
type analyzeInputs struct {
	seed    int64
	perReq  int
	hot     []netSpec
	hotJSON [][]byte
	fresh   []configfile.File
	// warm is the number of requests sent in warm-up, after the hot
	// set; measured operation i sends request warm+i.
	warm   int
	warmup [][]byte
}

func newAnalyzeInputs(e *env) *analyzeInputs {
	hot, per, bases, warm := analyzeHotSet, analyzePerReq, analyzeFreshBases, analyzeWarmReqs
	if e.smoke {
		hot, per, bases, warm = 8, 2, 4, 1
	}
	in := &analyzeInputs{
		seed: e.seed, perReq: per, warm: warm,
		hot:   genNets(e.seed, "analyze-hot", hot, analyzeShape),
		fresh: files(genNets(e.seed, "analyze-fresh", bases, analyzeShape)),
	}
	for _, h := range in.hot {
		in.hotJSON = append(in.hotJSON, mustJSON(h.file))
	}
	for lo := 0; lo < len(in.hot); lo += 2 * per {
		in.warmup = append(in.warmup, joinNetworks(in.hotJSON[lo:min(lo+2*per, len(in.hot))]))
	}
	for k := 0; k < warm; k++ {
		in.warmup = append(in.warmup, in.body(k))
	}
	return in
}

// body returns request i: the JSON of a serve.AnalyzeNetworksRequest.
func (in *analyzeInputs) body(i int) []byte {
	rng := rngFor(in.seed, "analyze-req", i)
	nets := make([][]byte, 0, 2*in.perReq)
	for k := 0; k < in.perReq; k++ {
		nets = append(nets, in.hotJSON[rng.Intn(len(in.hotJSON))])
	}
	for k := 0; k < in.perReq; k++ {
		f := i*in.perReq + k
		nets = append(nets, mustJSON(lowerDeadlines(in.fresh[f%len(in.fresh)], timeunit.Ticks(1+f/len(in.fresh)))))
	}
	rng.Shuffle(len(nets), func(a, b int) { nets[a], nets[b] = nets[b], nets[a] })
	return joinNetworks(nets)
}

// joinNetworks assembles encoded network descriptions into the bytes
// json.Marshal gives for a serve.AnalyzeNetworksRequest holding them.
func joinNetworks(nets [][]byte) []byte {
	return append(append([]byte(`{"networks":[`), bytes.Join(nets, []byte(","))...), "]}"...)
}

// lowerDeadlines returns a copy of f with every high-priority deadline
// lowered by d ticks.
func lowerDeadlines(f configfile.File, d timeunit.Ticks) configfile.File {
	f.Masters = append([]configfile.MasterJSON(nil), f.Masters...)
	for m := range f.Masters {
		f.Masters[m].Streams = append([]configfile.StreamJSON(nil), f.Masters[m].Streams...)
		for s := range f.Masters[m].Streams {
			if f.Masters[m].Streams[s].High {
				f.Masters[m].Streams[s].Deadline -= d
			}
		}
	}
	return f
}

// buildAll builds every network of a request the way the server does.
func buildAll(fs []configfile.File) ([]core.Network, []profibus.Config, error) {
	ns := make([]core.Network, len(fs))
	cs := make([]profibus.Config, len(fs))
	for i := range fs {
		n, c, err := fs[i].Build()
		if err != nil {
			return nil, nil, fmt.Errorf("network %d: %w", i, err)
		}
		ns[i], cs[i] = n, c
	}
	return ns, cs, nil
}

// verifyAnalyze checks every reply digest against a direct in-process
// Engine call on the bytes that were sent, decoded and built as the
// server does. It returns the number of mismatches.
func verifyAnalyze(ctx context.Context, in *analyzeInputs, digests map[int][32]byte, t *tally) (int, error) {
	eng := profirt.NewEngine(profirt.WithCache(profirt.NewAnalysisCache(0)))
	defer eng.Close()
	idx := make([]int, 0, len(digests))
	for i := range digests {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	bad := 0
	for _, i := range idx {
		ns, err := in.decode(in.warm + i)
		if err != nil {
			return bad, err
		}
		res, err := eng.AnalyzeNetworks(ctx, ns, profirt.AnalyzeOptions{})
		if err != nil {
			return bad, err
		}
		ok := respDigest(serve.AnalyzeNetworksResponse{Results: res}) == digests[i]
		if !ok {
			bad++
		}
		t.record(ok, fmt.Sprintf("request %d: reply differs from the direct Engine call", i))
	}
	return bad, nil
}

func runServeAnalyze(ctx context.Context, e *env) error {
	var in *analyzeInputs
	start := func(traceDir string) (*serveSession, error) {
		srv, err := startServer(ctx, e, traceDir)
		if err != nil {
			return nil, err
		}
		ss := &serveSession{srv: srv, path: analyzePath, body: func(i int) []byte { return in.body(in.warm + i) }}
		if err := ss.warm(in.warmup); err != nil {
			srv.stop()
			return nil, err
		}
		return ss, nil
	}
	ss, err := timeSetup(e, func() (*serveSession, error) {
		in = newAnalyzeInputs(e)
		return start("")
	}, func(ss *serveSession) { ss.srv.stop() })
	if err != nil {
		return err
	}
	verify := func(digests map[int][32]byte, t *tally) (int, error) {
		return verifyAnalyze(ctx, in, digests, t)
	}
	if e.trace {
		probe, err := analyzeProbe(e, in)
		if err != nil {
			ss.srv.stop()
			return err
		}
		return traceServe(ctx, e, ss, start, verify, probe)
	}
	defer ss.srv.stop()
	ls, digests := ss.drive(ctx, e, e.led.phase("measure"), e.seconds)
	rss, err := ss.srv.peakRSSMB()
	if err != nil {
		return err
	}
	ss.srv.stop()
	bad, err := verify(digests, e.led.phase("verify"))
	if err != nil {
		return err
	}
	ls.ok -= bad
	reportLoop(e, ls)
	e.set("peak_rss_mb", rss)
	return nil
}

// decode builds request i's networks from its bytes, as the server
// does.
func (in *analyzeInputs) decode(i int) ([]core.Network, error) {
	var req serve.AnalyzeNetworksRequest
	if err := json.Unmarshal(in.body(i), &req); err != nil {
		return nil, err
	}
	ns, _, err := buildAll(req.Networks)
	return ns, err
}

// analyzeProbe is serve-analyze's ladder input: the hot set, the
// network sequence of the first requests, and the first request.
func analyzeProbe(e *env, in *analyzeInputs) (probeSet, error) {
	n := analyzeReplay
	if e.smoke {
		n = 2
	}
	var replay []core.Network
	for i := 0; i < n; i++ {
		ns, err := in.decode(i)
		if err != nil {
			return probeSet{}, err
		}
		replay = append(replay, ns...)
	}
	return probeSet{specs: in.hot, replay: replay, path: analyzePath, body: in.body(0)}, nil
}

// simulateInputs are serve-simulate's requests: a fixed list of
// batches of simulatePerReq random-jitter networks, each batch with
// its own base seed, replayed in order by the clients.
type simulateInputs struct {
	specs  []netSpec
	bodies [][]byte
	refs   [][32]byte
}

func newSimulateInputs(e *env) *simulateInputs {
	nb, sh := simulateBodies, simulateShape
	if e.smoke {
		nb, sh.horizon = 2, 200_000
	}
	in := &simulateInputs{specs: genNets(e.seed, "simulate", nb*simulatePerReq, sh)}
	for j := 0; j < nb; j++ {
		req := serve.SimulateBatchRequest{
			Networks: files(in.specs[j*simulatePerReq : (j+1)*simulatePerReq]),
			Seed:     rngFor(e.seed, "simulate-batch", j).Int63(),
		}
		in.bodies = append(in.bodies, mustJSON(req))
	}
	return in
}

// references computes every body's expected reply digest with direct
// in-process Engine calls.
func (in *simulateInputs) references(ctx context.Context) error {
	eng := profirt.NewEngine()
	defer eng.Close()
	in.refs = make([][32]byte, len(in.bodies))
	for j, b := range in.bodies {
		var req serve.SimulateBatchRequest
		if err := json.Unmarshal(b, &req); err != nil {
			return err
		}
		_, cs, err := buildAll(req.Networks)
		if err != nil {
			return err
		}
		res, err := eng.SimulateBatch(ctx, cs, profirt.SimulateOptions{Seed: req.Seed, ConfigSeeds: req.ConfigSeeds})
		if err != nil {
			return err
		}
		in.refs[j] = respDigest(serve.SimulateBatchResponse{Results: serve.SimResults(res)})
	}
	return nil
}

func runServeSimulate(ctx context.Context, e *env) error {
	var in *simulateInputs
	start := func(traceDir string) (*serveSession, error) {
		srv, err := startServer(ctx, e, traceDir)
		if err != nil {
			return nil, err
		}
		ss := &serveSession{
			srv: srv, path: simulatePath,
			body:  func(i int) []byte { return in.bodies[i%len(in.bodies)] },
			check: func(i int, got [32]byte) bool { return got == in.refs[i%len(in.refs)] },
		}
		if err := ss.warm(in.bodies[:min(simulateWarmReqs, len(in.bodies))]); err != nil {
			srv.stop()
			return nil, err
		}
		return ss, nil
	}
	ss, err := timeSetup(e, func() (*serveSession, error) {
		in = newSimulateInputs(e)
		return start("")
	}, func(ss *serveSession) { ss.srv.stop() })
	if err != nil {
		return err
	}
	if err := in.references(ctx); err != nil {
		ss.srv.stop()
		return err
	}
	if e.trace {
		// Replies are checked in the loop, against the references.
		probe := probeSet{specs: in.specs, replay: nets(in.specs), path: simulatePath, body: in.bodies[0]}
		return traceServe(ctx, e, ss, start, nil, probe)
	}
	defer ss.srv.stop()
	ls, _ := ss.drive(ctx, e, e.led.phase("measure"), e.seconds)
	rss, err := ss.srv.peakRSSMB()
	if err != nil {
		return err
	}
	reportLoop(e, ls)
	e.set("peak_rss_mb", rss)
	return nil
}

// traceServe is the per-layer run of a serve workload: half the
// measured time against the untraced server, half against a fresh one
// started with -trace-dir, the traced half's /metrics delta and trace
// files, then the layer ladder on the workload's inputs. verify, when
// set, checks each half's reply digests after it.
func traceServe(ctx context.Context, e *env, ss *serveSession,
	start func(traceDir string) (*serveSession, error),
	verify func(map[int][32]byte, *tally) (int, error), probe probeSet) error {
	half := e.seconds / 2
	check := func(name string, digests map[int][32]byte) error {
		if verify == nil {
			return nil
		}
		_, err := verify(digests, e.led.phase(name))
		return err
	}
	untraced, digests := ss.drive(ctx, e, e.led.phase("untraced"), half)
	ss.srv.stop()
	if err := check("verify untraced", digests); err != nil {
		return err
	}

	dir, err := ensureTraceDir(e, "serve-traces")
	if err != nil {
		return err
	}
	ts, err := start(dir)
	if err != nil {
		return err
	}
	defer ts.srv.stop()
	skip := dirNames(dir) // the warm-up requests' traces
	m0, err := ts.srv.metrics()
	if err != nil {
		return err
	}
	traced, digests := ts.drive(ctx, e, e.led.phase("traced"), half)
	m1, err := ts.srv.metrics()
	if err != nil {
		return err
	}
	ts.srv.stop()
	if err := check("verify traced", digests); err != nil {
		return err
	}
	traces, dropped, err := readTraceDir(dir, skip)
	if err != nil {
		return err
	}
	var nspans uint64
	for _, tr := range traces {
		nspans += uint64(len(tr))
	}
	var tot engineTotals
	tot.add(m0.Engine, m1.Engine)
	reportEngine(e, tot, len(traced.lats))
	reportTracing(e, untraced, traced, nspans, dropped)
	return runLadder(ctx, e, probe, tot.fanout())
}

// analyzeRequestOf is an analyze request over the first networks of
// specs, one request's worth.
func analyzeRequestOf(specs []netSpec) serve.AnalyzeNetworksRequest {
	return serve.AnalyzeNetworksRequest{Networks: files(specs[:min(2*analyzePerReq, len(specs))])}
}
