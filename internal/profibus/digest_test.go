package profibus

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"profirt/internal/ap"
	"profirt/internal/fdl"
)

// simDigest pins the simulator's exact output over digestConfigs: the
// SHA-256 of %#v of every Result, in order. Any change to event
// ordering, RNG draw order or accounting moves it. Regenerate it only
// for a change that is meant to alter simulation results, and say why.
const simDigest = "2ce2aad76ebf8544e54c3f4ff71b0c8668d9cbb218c857369064f1644f7ed7e1"

// digestConfigs draws n valid configs that cover the simulator's
// scheduling corners: jitter below, at and up to four periods, random
// and adversarial jitter, offsets, periods and offsets shared across
// streams (same-instant ties), tiny periods (ties within one stream's
// jittered releases), faults, GAP polling, explicit release lists with
// duplicate instants, mixed FCFS/DM/EDF masters, low-priority streams
// and tracing on and off.
func digestConfigs(n int) []Config {
	r := rand.New(rand.NewSource(14))
	cfgs := make([]Config, n)
	for i := range cfgs {
		cfgs[i] = randomSimConfig(r)
	}
	return cfgs
}

func randomSimConfig(r *rand.Rand) Config {
	// tiny selects periods of a few ticks over a short horizon:
	// jittered releases of one stream then land on the same instant
	// often.
	tiny := r.Intn(5) == 0
	cfg := Config{
		Bus:         fdl.DefaultBusParams(),
		TTR:         Ticks(300 + r.Intn(20_000)),
		Slaves:      []SlaveConfig{{Addr: 40, TSDR: 30}, {Addr: 41, TSDR: 90}},
		Horizon:     Ticks(10_000 + r.Intn(90_000)),
		Jitter:      JitterMode(r.Intn(3)),
		Seed:        r.Int63(),
		RecordTrace: r.Intn(2) == 0,
	}
	if r.Intn(4) == 0 {
		cfg.Faults.CycleFailProb = 0.3 * r.Float64()
	}
	if r.Intn(4) == 0 {
		cfg.GapFactor = 1 + r.Intn(3)
	}
	sharedPeriod := Ticks(300 + r.Intn(6_000))
	if tiny {
		cfg.Horizon = Ticks(1_000 + r.Intn(3_000))
		sharedPeriod = Ticks(1 + r.Intn(4))
	}
	sharedOffset := Ticks(r.Intn(int(sharedPeriod)))
	for mi, nm := 0, 1+r.Intn(3); mi < nm; mi++ {
		mc := MasterConfig{Addr: byte(1 + 3*mi), Dispatcher: ap.Policy(r.Intn(3))}
		for si, ns := 0, 1+r.Intn(4); si < ns; si++ {
			st := StreamConfig{
				Name:      fmt.Sprintf("m%ds%d", mi, si),
				Slave:     byte(40 + r.Intn(2)),
				High:      r.Intn(4) != 0,
				ReqBytes:  r.Intn(10),
				RespBytes: r.Intn(10),
				Trace:     r.Intn(8) == 0,
			}
			st.Period = sharedPeriod
			if r.Intn(2) == 0 {
				st.Period = Ticks(1 + int(sharedPeriod)/2 + r.Intn(int(sharedPeriod)))
			}
			st.Deadline = Ticks(1 + r.Intn(3*int(st.Period)+2_000))
			switch r.Intn(6) {
			case 0:
				st.Jitter = 0
			case 1:
				st.Jitter = Ticks(r.Intn(int(st.Period)))
			case 2:
				st.Jitter = st.Period
			case 3:
				st.Jitter = 4 * st.Period
			default:
				st.Jitter = Ticks(r.Intn(4*int(st.Period) + 1))
			}
			switch r.Intn(3) {
			case 0:
				st.Offset = sharedOffset
			case 1:
				st.Offset = Ticks(r.Intn(2 * int(st.Period)))
			}
			if r.Intn(8) == 0 {
				st.Releases = randomReleases(r, cfg.Horizon)
			}
			mc.Streams = append(mc.Streams, st)
		}
		cfg.Masters = append(cfg.Masters, mc)
	}
	return cfg
}

// randomReleases draws a sorted explicit release list (possibly empty,
// never nil) with duplicate instants and instants past the horizon.
func randomReleases(r *rand.Rand, horizon Ticks) []Ticks {
	rel := []Ticks{}
	for k := r.Intn(40); k > 0; k-- {
		at := Ticks(r.Int63n(int64(horizon) + int64(horizon)/10))
		rel = append(rel, at)
		for r.Intn(3) == 0 {
			rel = append(rel, at)
		}
	}
	slices.Sort(rel)
	return rel
}

func TestSimulateDigest(t *testing.T) {
	const n = 3000
	h := sha256.New()
	for i, cfg := range digestConfigs(n) {
		res, err := Simulate(cfg)
		if err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
		fmt.Fprintf(h, "%#v\n", res)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != simDigest {
		t.Errorf("simulation digest over %d configs = %s, want %s", n, got, simDigest)
	}
}
