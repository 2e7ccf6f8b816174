package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"profirt"
	"profirt/internal/obs"
	"profirt/internal/profibus"
)

// inProcessLoop is the measured loop of a workload that runs on
// Engines inside the benchmark process, one operation at a time; each
// operation builds its own Engine, as one CLI invocation does.
type inProcessLoop struct {
	// unit is the input-list length: loops end on whole cycles.
	unit int
	// op performs operation i; with tot set it books the Engine's
	// counters there.
	op func(ctx context.Context, i int, tot *engineTotals) opResult
}

// measureInProcess runs the loop for the end-to-end metrics, or, in a
// traced run, half the time untraced and half under an obs.Tracer per
// operation, then the layer ladder on probe.
func measureInProcess(ctx context.Context, e *env, l inProcessLoop, probe func() probeSet) error {
	plain := func(i int) opResult { return l.op(ctx, i, nil) }
	if !e.trace {
		ls := closedLoop(ctx, 1, e.seconds, e.minOps(), l.unit, e.led.phase("measure"), plain)
		rss, err := peakRSSMB("self")
		if err != nil {
			return err
		}
		reportLoop(e, ls)
		e.set("peak_rss_mb", rss)
		return nil
	}
	half := e.seconds / 2
	untraced := closedLoop(ctx, 1, half, e.minOps(), l.unit, e.led.phase("untraced"), plain)
	var tot engineTotals
	var nspans, dropped uint64
	traced := closedLoop(ctx, 1, half, e.minOps(), l.unit, e.led.phase("traced"), func(i int) opResult {
		tr := obs.NewTracer(strconv.Itoa(i), nil)
		r := l.op(obs.WithTracer(ctx, tr), i, &tot)
		nspans += uint64(len(tr.Events()))
		dropped += tr.Dropped()
		return r
	})
	reportEngine(e, tot, len(traced.lats))
	reportTracing(e, untraced, traced, nspans, dropped)
	return runLadder(ctx, e, probe(), tot.fanout())
}

const (
	campaignNets    = 16
	campaignTrials  = 8
	campaignHorizon = 400_000
)

var (
	campaignScales = []float64{0.7, 0.85, 1, 1.15}
	campaignShape  = shape{masters: 3, streams: 3, jitter: profibus.JitterRandom, horizon: campaignHorizon}
)

// campaignInputs are campaign-resume's manifests: one per generated
// network, each sweeping the three dispatchers over four deadline
// scales with eight trials (96 jobs; 1,536 over all 16).
type campaignInputs struct {
	specs []netSpec
	camps []*profirt.Campaign
	// refs are the tables of a parallelism-1 storeless run.
	refs [][]byte
}

func newCampaignInputs(e *env) (*campaignInputs, error) {
	n := campaignNets
	if e.smoke {
		n = 2
	}
	in := &campaignInputs{specs: genNets(e.seed, "campaign", n, campaignShape)}
	for k, s := range in.specs {
		f := s.file
		c, err := profirt.NewCampaign(profirt.CampaignManifest{
			Name:           fmt.Sprintf("perfbench-%d", k),
			Seed:           rngFor(e.seed, "campaign-seed", k).Int63(),
			Trials:         campaignTrials,
			Horizon:        campaignHorizon,
			DeadlineScales: campaignScales,
			Networks:       []profirt.CampaignNetworkSpec{{Name: "net", Network: &f}},
		})
		if err != nil {
			return nil, err
		}
		in.camps = append(in.camps, c)
	}
	return in, nil
}

// references runs every campaign storeless at parallelism 1.
func (in *campaignInputs) references(ctx context.Context) error {
	eng := profirt.NewEngine(profirt.WithParallelism(1), profirt.WithCache(profirt.NewAnalysisCache(0)))
	defer eng.Close()
	in.refs = make([][]byte, len(in.camps))
	for k, c := range in.camps {
		res, err := eng.RunCampaign(ctx, c, profirt.CampaignOptions{})
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		if err := profirt.RenderTable(&buf, res.Table, "md"); err != nil {
			return err
		}
		in.refs[k] = buf.Bytes()
	}
	return nil
}

// check validates one campaign run against its reference.
func (in *campaignInputs) check(k int, r campaignRun, cold bool) (bool, string) {
	jobs := len(in.camps[k].Jobs())
	wantExec, wantRest := 0, jobs
	if cold {
		wantExec, wantRest = jobs, 0
	}
	switch {
	case r.res.Executed != wantExec || r.res.Restored != wantRest || r.res.Skipped != 0:
		return false, fmt.Sprintf("campaign %d: %d executed, %d restored, %d skipped of %d",
			k, r.res.Executed, r.res.Restored, r.res.Skipped, jobs)
	case !bytes.Equal(r.table, in.refs[k]):
		return false, fmt.Sprintf("campaign %d: table differs from the parallelism-1 run", k)
	}
	return true, ""
}

func (in *campaignInputs) probe() probeSet {
	return probeSet{specs: in.specs, replay: nets(in.specs), path: analyzePath,
		body: mustJSON(analyzeRequestOf(in.specs))}
}

// runCampaignResume measures the campaign life cycle of a user of
// cmd/campaign: each operation runs one manifest cold into a fresh
// store, then resumes it from the reopened store, each time on a fresh
// Engine. Both tables must equal the parallelism-1 reference; the cold
// run must execute every job and the resume restore every one.
func runCampaignResume(ctx context.Context, e *env) error {
	path := func(k int) string { return filepath.Join(e.tmp, "campaign-"+strconv.Itoa(k)+".jsonl") }
	cycle := func(ctx context.Context, in *campaignInputs, k int, tot *engineTotals) (bool, string) {
		if err := os.Remove(path(k)); err != nil && !os.IsNotExist(err) {
			return false, err.Error()
		}
		for _, cold := range []bool{true, false} {
			r, err := runCampaign(ctx, in.camps[k], path(k), tot)
			if err != nil {
				return false, err.Error()
			}
			if ok, reason := in.check(k, r, cold); !ok {
				return false, reason
			}
		}
		return true, ""
	}
	in, err := timeSetup(e, func() (*campaignInputs, error) {
		in, err := newCampaignInputs(e)
		if err != nil {
			return nil, err
		}
		// Warm-up: run the first campaigns once; no references yet.
		for k := 0; k < min(4, len(in.camps)); k++ {
			for pass := 0; pass < 2; pass++ {
				if _, err := runCampaign(ctx, in.camps[k], path(k), nil); err != nil {
					return nil, err
				}
			}
			if err := os.Remove(path(k)); err != nil {
				return nil, err
			}
		}
		return in, nil
	}, func(*campaignInputs) {})
	if err != nil {
		return err
	}
	if err := in.references(ctx); err != nil {
		return err
	}
	op := func(ctx context.Context, i int, tot *engineTotals) opResult {
		t0 := time.Now()
		ok, reason := cycle(ctx, in, i%len(in.camps), tot)
		return opResult{lat: time.Since(t0), ok: ok, reason: reason}
	}
	return measureInProcess(ctx, e, inProcessLoop{unit: len(in.camps), op: op}, in.probe)
}

// experimentsProbe is the ladder input of experiments-quick, which has
// no network inputs of its own: networks drawn from its seed in
// campaign-resume's shape.
func experimentsProbe(e *env) probeSet {
	n := 16
	if e.smoke {
		n = 2
	}
	specs := genNets(e.seed, "experiments-probe", n, campaignShape)
	return probeSet{specs: specs, replay: nets(specs), path: analyzePath, body: mustJSON(analyzeRequestOf(specs))}
}

// runExperiment runs the given experiments (all of them for none) in
// quick mode on a fresh Engine of the given parallelism (0 =
// GOMAXPROCS) with a cold cache, as `experiments -quick` does, and
// renders their tables as that command prints them.
func runExperiment(ctx context.Context, ids []string, seed int64, parallelism int, tot *engineTotals) ([]byte, error) {
	eng := profirt.NewEngine(profirt.WithParallelism(parallelism), profirt.WithCache(profirt.NewAnalysisCache(0)))
	res, err := eng.RunExperiments(ctx, ids, profirt.ExperimentOptions{Seed: seed, Quick: true})
	if tot != nil {
		tot.add(profirt.EngineStats{}, eng.Stats())
	}
	eng.Close()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	for _, er := range res {
		fmt.Fprintf(&buf, "## %s — %s (%s)\n\n", er.ID, er.Title, er.Anchor)
		for _, t := range er.Tables {
			if err := profirt.RenderTable(&buf, t, "md"); err != nil {
				return nil, err
			}
			buf.WriteByte('\n')
		}
	}
	return buf.Bytes(), nil
}

// runExperiments measures the paper reproduction as
// `experiments -quick` runs it: each operation is one pass over E1–E13
// on a fresh Engine with a cold cache, and its tables must equal those
// of a parallelism-1 pass byte for byte.
func runExperiments(ctx context.Context, e *env) error {
	// Set-up is the warm-up pass.
	first, err := timeSetup(e, func() ([]byte, error) { return runExperiment(ctx, nil, e.seed, 0, nil) }, func([]byte) {})
	if err != nil {
		return err
	}
	ref, err := runExperiment(ctx, nil, e.seed, 1, nil)
	if err != nil {
		return err
	}
	e.led.phase("warm-up pass").record(bytes.Equal(first, ref), "tables differ from the parallelism-1 pass")
	op := func(ctx context.Context, i int, tot *engineTotals) opResult {
		t0 := time.Now()
		b, err := runExperiment(ctx, nil, e.seed, 0, tot)
		lat := time.Since(t0)
		if err != nil {
			return opResult{lat: lat, reason: err.Error()}
		}
		if !bytes.Equal(b, ref) {
			return opResult{lat: lat, reason: "tables differ from the parallelism-1 pass"}
		}
		return opResult{lat: lat, ok: true}
	}
	return measureInProcess(ctx, e, inProcessLoop{unit: 1, op: op}, func() probeSet { return experimentsProbe(e) })
}
