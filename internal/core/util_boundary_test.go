package core

import (
	"testing"

	"profirt/internal/timeunit"
)

// TestUtilizationBoundary pins the float64 utilization filter's
// fallback: message loads of exactly 1 must diverge (MaxTicks) and
// loads a hair below 1 must converge, and in both cases the float sum
// must leave the verdict to the exact sum.
func TestUtilizationBoundary(t *testing.T) {
	const tc = 1 << 17
	// below1 is 1/2 + T_cycle/(2·T_cycle+1) = 1 − 1/(4·T_cycle+2): inside
	// the filter's band for two or three terms, yet short of 1.
	below1 := func(rest ...Stream) []Stream {
		return append([]Stream{
			{Name: "a", Ch: 1, D: 10 * tc, T: 2 * tc},
			{Name: "b", Ch: 1, D: 11 * tc, T: 2*tc + 1},
		}, rest...)
	}
	exact1 := func(rest ...Stream) []Stream {
		return append([]Stream{
			{Name: "a", Ch: 1, D: 10 * tc, T: 2 * tc},
			{Name: "b", Ch: 1, D: 11 * tc, T: 2 * tc},
		}, rest...)
	}
	// requireExactPath checks that the case lies inside the float
	// filter's band and on the intended side of 1.
	requireExactPath := func(name string, streams []Stream, indices []int, atLeastOne bool) {
		t.Helper()
		if floatDecides(streams, indices, tc, len(streams)) {
			t.Fatalf("%s: the float filter decided alone; the case misses the band", name)
		}
		if got := refMsgUtilizationAtLeastOne(streams, indices, tc); got != atLeastOne {
			t.Fatalf("%s: exact load >= 1 is %v, the case is built for %v", name, got, atLeastOne)
		}
	}

	t.Run("EDF", func(t *testing.T) {
		sets := []struct {
			name    string
			streams []Stream
			diverge bool
		}{
			{"halves", exact1(), true},
			{"thirds", []Stream{{Ch: 1, D: tc, T: 3 * tc}, {Ch: 1, D: 2 * tc, T: 3 * tc}, {Ch: 1, D: 3 * tc, T: 3 * tc}}, true},
			{"2-3-6", []Stream{{Ch: 1, D: tc, T: 2 * tc}, {Ch: 1, D: 2 * tc, T: 3 * tc}, {Ch: 1, D: 3 * tc, T: 6 * tc}}, true},
			{"just below", below1(), false},
		}
		for _, set := range sets {
			requireExactPath(set.name, set.streams, nil, set.diverge)
			// A wrong load verdict would still end in MaxTicks for a load
			// of 1, after a crawl to the horizon; check it directly.
			if got := msgUtilizationAtLeastOne(set.streams, tc); got != set.diverge {
				t.Errorf("%s: msgUtilizationAtLeastOne = %v, want %v", set.name, got, set.diverge)
			}
			for _, low := range []bool{false, true} {
				rs := EDFResponseTimes(set.streams, tc, EDFOptions{BlockingFromLowPriority: low})
				for i, r := range rs {
					if diverged := r == timeunit.MaxTicks; diverged != set.diverge {
						t.Errorf("%s (low traffic %v): stream %d R = %v, want diverged = %v", set.name, low, i, r, set.diverge)
					}
				}
			}
		}
	})

	t.Run("DM", func(t *testing.T) {
		// Stream c ranks last: its higher-priority load is the a+b
		// prefix, exactly 1 in one set and just below 1 in the other.
		c := Stream{Name: "c", Ch: 1, D: 12 * tc, T: 1 << 40}
		atOne, below := exact1(c), below1(c)
		requireExactPath("exact prefix", atOne, []int{0, 1}, true)
		requireExactPath("prefix below", below, []int{0, 1}, false)
		sc := new(dmScratch)
		for _, set := range []struct {
			streams []Stream
			div     bool
		}{{atOne, true}, {below, false}} {
			sc.prepare(set.streams, tc)
			if sc.lvlDiv[1] != set.div || sc.hpDiv[2] != set.div {
				t.Errorf("a+b load >= 1 is %v, but lvlDiv[1] = %v and hpDiv[2] = %v", set.div, sc.lvlDiv[1], sc.hpDiv[2])
			}
		}
		for _, opts := range []DMOptions{{}, {Literal: true}, {BlockingFromLowPriority: true}} {
			if r := DMResponseTimes(atOne, tc, opts)[2]; r != timeunit.MaxTicks {
				t.Errorf("%+v: hp load exactly 1, stream c R = %v, want MaxTicks", opts, r)
			}
			if r := DMResponseTimes(below, tc, opts)[2]; r == timeunit.MaxTicks {
				t.Errorf("%+v: hp load just below 1, stream c diverged", opts)
			}
		}
		// A long tail of light streams behind a prefix load near 1:
		// every later prefix stays inside the band, and the flags must
		// still match the exact prefix sums. The exact sum is seeded once
		// and grown stream by stream, so the sweep's allocations stay
		// linear in the stream count, about ten per stream (summing every
		// prefix afresh costs quadratically many, over 200 per stream
		// here).
		for _, head := range [][]Stream{exact1(), below1()} {
			streams := head
			for k := range 400 {
				streams = append(streams, Stream{Ch: 1, D: 20*tc + Ticks(k), T: 1 << 40})
			}
			sc.prepare(streams, tc)
			for k := 1; k < len(streams); k++ {
				prefix := sc.order[:k+1]
				if floatDecides(streams, prefix, tc, len(streams)) {
					t.Fatalf("long tail: prefix %d left the band", k)
				}
				if want := refMsgUtilizationAtLeastOne(streams, prefix, tc); sc.lvlDiv[k] != want {
					t.Fatalf("long tail: lvlDiv[%d] = %v, exact prefix sum says %v", k, sc.lvlDiv[k], want)
				}
			}
			if a := testing.AllocsPerRun(3, func() { sc.prepare(streams, tc) }); a > 40*float64(len(streams)) {
				t.Errorf("long tail of %d streams: prepare made %.0f allocations, want at most %d", len(streams), a, 40*len(streams))
			}
		}

		// Stream b's level load (a+b) is exactly 1: the revised analysis
		// diverges, the literal one (hp load 1/2) does not.
		if r := DMResponseTimes(atOne, tc, DMOptions{})[1]; r != timeunit.MaxTicks {
			t.Errorf("level load exactly 1, stream b R = %v, want MaxTicks", r)
		}
		if r := DMResponseTimes(atOne, tc, DMOptions{Literal: true})[1]; r == timeunit.MaxTicks {
			t.Error("literal DM, hp load 1/2: stream b diverged")
		}
	})
}
