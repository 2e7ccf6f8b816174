package profibus

import (
	"fmt"
	"testing"

	"profirt/internal/fdl"
)

// BenchmarkSimulate runs one fixed network (a single master whose ring
// is itself, so nearly every event is a token pass) at growing
// horizons. events/op counts the simulated events — releases, message
// cycles, GAP polls and token passes — and ns/event should stay flat as
// the horizon grows: the calendar's depth depends on the streams, not
// on the horizon.
func BenchmarkSimulate(b *testing.B) {
	for _, horizon := range []Ticks{200_000, 2_000_000, 50_000_000} {
		cfg := Config{
			Bus: fdl.DefaultBusParams(),
			TTR: 2_000,
			Masters: []MasterConfig{{Addr: 1, Streams: []StreamConfig{{
				Name: "a", Slave: 30, High: true, Period: 20_000, Deadline: 15_000,
			}}}},
			Slaves:  []SlaveConfig{{Addr: 30, TSDR: 30}},
			Horizon: horizon,
		}
		b.Run(fmt.Sprintf("horizon=%d", horizon), func(b *testing.B) {
			var events int64
			for b.Loop() {
				res, err := Simulate(cfg)
				if err != nil {
					b.Fatal(err)
				}
				events = simEvents(res)
			}
			b.ReportMetric(float64(events), "events/op")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*events), "ns/event")
		})
	}
}

// simEvents counts a run's simulated events from its Result.
func simEvents(res Result) int64 {
	n := res.TokenPasses
	for _, m := range res.PerMaster {
		n += m.HighCycles + m.LowCycles + m.GapPolls
		for _, s := range m.PerStream {
			n += s.Released
		}
	}
	return n
}
