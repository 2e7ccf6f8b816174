package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"profirt/internal/ap"
	"profirt/internal/configfile"
	"profirt/internal/core"
	"profirt/internal/profibus"
	"profirt/internal/timeunit"
	"profirt/internal/workload"
)

// netSpec is one generated network in its three forms: the wire
// description the program receives, and the analytic model and
// simulator configuration it builds from it.
type netSpec struct {
	file configfile.File
	net  core.Network
	cfg  profibus.Config
}

// shape fixes how networks of a workload are drawn.
type shape struct {
	masters, streams int
	// periodMin and periodMax override the stream-period range of
	// workload.DefaultStreamSetParams when set.
	periodMin, periodMax timeunit.Ticks
	jitter               profibus.JitterMode
	horizon              timeunit.Ticks
}

// rngFor derives an independent deterministic stream for item i of a
// seeded input family (splitmix64 over seed, family and index).
func rngFor(seed int64, family string, i int) *rand.Rand {
	h := uint64(seed) ^ 0x9e3779b97f4a7c15
	for _, c := range []byte(family) {
		h = (h ^ uint64(c)) * 0x100000001b3
	}
	h ^= uint64(i) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	h ^= h >> 31
	return rand.New(rand.NewSource(int64(h)))
}

// genNet draws one network of the given shape with workload.StreamSet
// and a dispatcher drawn uniformly from FCFS, DM and EDF, then
// rebuilds both models from the wire form, exactly as the program
// does on receipt.
func genNet(rng *rand.Rand, sh shape) netSpec {
	p := workload.DefaultStreamSetParams()
	p.Masters, p.StreamsPerMaster = sh.masters, sh.streams
	if sh.periodMin > 0 {
		p.PeriodMin, p.PeriodMax = sh.periodMin, sh.periodMax
	}
	p.Dispatcher = []ap.Policy{ap.FCFS, ap.DM, ap.EDF}[rng.Intn(3)]
	_, cfg := workload.StreamSet(rng, p)
	cfg.Jitter = sh.jitter
	if sh.horizon > 0 {
		cfg.Horizon = sh.horizon
	}
	f := fileOf(cfg)
	net, built, err := f.Build()
	if err != nil {
		// The generator only draws valid networks; anything else is a
		// bug in this file, not an input the program should see.
		panic(fmt.Sprintf("perfbench: generated network does not build: %v", err))
	}
	return netSpec{file: f, net: net, cfg: built}
}

// genNets draws n networks of family fam.
func genNets(seed int64, fam string, n int, sh shape) []netSpec {
	out := make([]netSpec, n)
	for i := range out {
		out[i] = genNet(rngFor(seed, fam, i), sh)
	}
	return out
}

// fileOf renders a simulator configuration in the configfile schema.
// The bus is the default one, which is what StreamSet draws on.
func fileOf(cfg profibus.Config) configfile.File {
	f := configfile.File{
		TTR:       cfg.TTR,
		Horizon:   cfg.Horizon,
		Seed:      cfg.Seed,
		Jitter:    jitterName(cfg.Jitter),
		GapFactor: cfg.GapFactor,
	}
	for _, m := range cfg.Masters {
		mj := configfile.MasterJSON{Addr: m.Addr, Dispatcher: policyName(m.Dispatcher)}
		for _, s := range m.Streams {
			mj.Streams = append(mj.Streams, configfile.StreamJSON{
				Name: s.Name, Slave: s.Slave, High: s.High,
				Period: s.Period, Deadline: s.Deadline, Jitter: s.Jitter, Offset: s.Offset,
				ReqBytes: s.ReqBytes, RespBytes: s.RespBytes,
			})
		}
		f.Masters = append(f.Masters, mj)
	}
	for _, s := range cfg.Slaves {
		f.Slaves = append(f.Slaves, configfile.SlaveJSON{Addr: s.Addr, TSDR: s.TSDR})
	}
	return f
}

func policyName(p ap.Policy) string {
	switch p {
	case ap.DM:
		return "dm"
	case ap.EDF:
		return "edf"
	default:
		return "fcfs"
	}
}

func jitterName(j profibus.JitterMode) string {
	switch j {
	case profibus.JitterRandom:
		return "random"
	case profibus.JitterAdversarial:
		return "adversarial"
	default:
		return "none"
	}
}

func files(specs []netSpec) []configfile.File {
	out := make([]configfile.File, len(specs))
	for i, s := range specs {
		out[i] = s.file
	}
	return out
}

func nets(specs []netSpec) []core.Network {
	out := make([]core.Network, len(specs))
	for i, s := range specs {
		out[i] = s.net
	}
	return out
}

// mustJSON encodes v; the benchmark's own request types always encode.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("perfbench: encoding %T: %v", v, err))
	}
	return b
}
