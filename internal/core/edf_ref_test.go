package core

import (
	"math/big"
	"math/rand"
	"slices"
	"testing"

	"profirt/internal/timeunit"
)

// The reference kernels below are the straightforward forms of the
// message analyses: an exact big.Rat load test, and the EDF fixed point
// solved afresh at every candidate offset with every term multiplied by
// T_cycle. The busy period and the candidate offsets are shared with
// the production kernel. TestKernelsMatchReference holds the production
// kernels to them on random inputs.

// refMsgUtilizationAtLeastOne reports Σ tcycle/T_j >= 1 exactly over the
// given stream indices (nil = all).
func refMsgUtilizationAtLeastOne(streams []Stream, indices []int, tcycle Ticks) bool {
	sum := new(big.Rat)
	add := func(s Stream) {
		if s.T > 0 {
			sum.Add(sum, big.NewRat(int64(tcycle), int64(s.T)))
		}
	}
	if indices == nil {
		for _, s := range streams {
			add(s)
		}
	} else {
		for _, j := range indices {
			add(streams[j])
		}
	}
	return sum.Cmp(big.NewRat(1, 1)) >= 0
}

func refEDFResponseTimes(streams []Stream, tcycle Ticks, opts EDFOptions) []Ticks {
	out := make([]Ticks, len(streams))
	if len(streams) == 0 {
		return out
	}
	horizon := opts.Horizon
	if horizon <= 0 {
		horizon = defaultMsgHorizon
	}
	if refMsgUtilizationAtLeastOne(streams, nil, tcycle) {
		for i := range out {
			out[i] = timeunit.MaxTicks
		}
		return out
	}
	busy := edfMessageBusyPeriod(streams, tcycle, horizon)
	if busy >= horizon {
		for i := range out {
			out[i] = timeunit.MaxTicks
		}
		return out
	}
	for i := range streams {
		out[i] = refEDFResponseOne(streams, i, tcycle, busy, opts, horizon)
	}
	return out
}

func refEDFResponseOne(streams []Stream, i int, tcycle, busy Ticks, opts EDFOptions, horizon Ticks) Ticks {
	si := streams[i]
	var best Ticks
	for _, a := range edfMessageCandidates(nil, streams, i, busy) {
		adi := a + si.D
		var blocking Ticks
		if opts.BlockingFromLowPriority {
			blocking = tcycle
		} else {
			for j, s := range streams {
				if j != i && s.D-s.J > adi {
					blocking = tcycle
					break
				}
			}
		}
		earlier := timeunit.MulSat(timeunit.FloorDiv(a, si.T), tcycle)
		l := blocking
		for {
			var w Ticks
			for j, s := range streams {
				if j == i || s.D-s.J > adi {
					continue
				}
				byRate := 1 + timeunit.FloorDiv(l+s.J, s.T)
				byDeadline := 1 + timeunit.FloorDiv(adi-s.D+s.J, s.T)
				w = timeunit.AddSat(w,
					timeunit.MulSat(timeunit.Min(byRate, byDeadline), tcycle))
			}
			next := timeunit.AddSat(timeunit.AddSat(blocking, w), earlier)
			if next == l {
				break
			}
			l = next
			if l > timeunit.AddSat(horizon, a) || l == timeunit.MaxTicks {
				return timeunit.MaxTicks
			}
		}
		r := timeunit.Max(tcycle, timeunit.AddSat(tcycle, l-a))
		if r > best {
			best = r
		}
	}
	return timeunit.AddSat(best, si.J)
}

// floatDecides reports whether the float64 filter alone settles the
// load test over streams[indices] (nil = all) for a sum of up to n
// terms, summing in the order the kernels do.
func floatDecides(streams []Stream, indices []int, tcycle Ticks, n int) bool {
	var sum float64
	if indices == nil {
		for _, s := range streams {
			sum += utilTerm(s, tcycle)
		}
	} else {
		for _, j := range indices {
			sum += utilTerm(streams[j], tcycle)
		}
	}
	_, ok := utilDecided(sum, n)
	return ok
}

// randomKernelCase draws one stream set and option pair. A third of the
// periods are small multiples of T_cycle, so loads of exactly 1 (and
// exactly 1 over a DM prefix) occur often enough to reach the exact
// fallback. One case in sixteen scales every quantity by 2⁴⁰ under a
// 2⁶² horizon, so the fixed points run near the saturation limit.
func randomKernelCase(rng *rand.Rand) ([]Stream, Ticks, EDFOptions) {
	tc := Ticks(50 + rng.Intn(2000))
	huge := rng.Intn(16) == 0
	if huge {
		tc <<= 40
	}
	streams := make([]Stream, 1+rng.Intn(6))
	for i := range streams {
		var T Ticks
		if rng.Intn(3) == 0 {
			T = tc * Ticks(1+rng.Intn(8))
		} else {
			T = tc + Ticks(rng.Int63n(int64(30*tc)))
		}
		var J Ticks
		if rng.Intn(2) == 0 {
			J = Ticks(rng.Int63n(int64(T/2 + 1)))
		}
		streams[i] = Stream{Name: "s", Ch: 1, D: 1 + Ticks(rng.Int63n(int64(2*T))), T: T, J: J}
	}
	opts := EDFOptions{BlockingFromLowPriority: rng.Intn(2) == 0}
	switch {
	case huge:
		opts.Horizon = 1 << 62
	case rng.Intn(2) == 0:
		opts.Horizon = tc * Ticks(1+rng.Intn(300))
	}
	return streams, tc, opts
}

func TestKernelsMatchReference(t *testing.T) {
	cases := 20_000
	if testing.Short() {
		cases = 4_000
	}
	rng := rand.New(rand.NewSource(1999))
	var convergent, edfExact, dmExact int
	sc := new(dmScratch)
	for c := 0; c < cases; c++ {
		streams, tc, opts := randomKernelCase(rng)

		got := EDFResponseTimes(streams, tc, opts)
		want := refEDFResponseTimes(streams, tc, opts)
		if !slices.Equal(got, want) {
			t.Fatalf("case %d: EDFResponseTimes(%+v, %d, %+v) = %v, reference %v", c, streams, tc, opts, got, want)
		}
		for _, r := range got {
			if r != timeunit.MaxTicks {
				convergent++
			}
		}
		if got, want := msgUtilizationAtLeastOne(streams, tc), refMsgUtilizationAtLeastOne(streams, nil, tc); got != want {
			t.Fatalf("case %d: msgUtilizationAtLeastOne = %v, exact sum says %v (streams %+v, T_cycle %d)", c, got, want, streams, tc)
		}
		if !floatDecides(streams, nil, tc, len(streams)) {
			edfExact++
		}

		sc.prepare(streams, tc)
		for k := range sc.order {
			prefix := sc.order[:k+1]
			if want := refMsgUtilizationAtLeastOne(streams, prefix, tc); sc.lvlDiv[k] != want {
				t.Fatalf("case %d: lvlDiv[%d] = %v, exact prefix sum says %v (streams %+v, T_cycle %d)", c, k, sc.lvlDiv[k], want, streams, tc)
			}
			if want := k > 0 && refMsgUtilizationAtLeastOne(streams, sc.order[:k], tc); sc.hpDiv[k] != want {
				t.Fatalf("case %d: hpDiv[%d] = %v, exact prefix sum says %v", c, k, sc.hpDiv[k], want)
			}
			if !floatDecides(streams, prefix, tc, len(streams)) {
				dmExact++
			}
		}
	}
	t.Logf("%d cases: %d convergent EDF bounds, exact fallback on %d EDF loads and %d DM prefixes", cases, convergent, edfExact, dmExact)
	if edfExact == 0 || dmExact == 0 {
		t.Errorf("the exact fallback never ran (EDF %d, DM %d): the cases miss the boundary", edfExact, dmExact)
	}
}
