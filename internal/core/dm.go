package core

import (
	"math/big"
	"sync"

	"profirt/internal/timeunit"
)

// The message-level load Σ T_cycle/T_j decides divergence: at or above
// one request per token cycle the token-cycle-granular fixed points
// never close. The decision must be exact, since a load of exactly 1
// (periods that are multiples of T_cycle) diverges. A float64 sum
// settles nearly every load; big.Rat settles the rest.
//
// Error bound. Each term fl(fl(T_cycle)/fl(T_j)) takes two int64→float64
// conversions and one division, each rounding by a relative error of at
// most u = 2⁻⁵³; the running sum of n terms adds n−1 more. All terms
// share T_cycle's sign, so the computed sum ŝ of the exact sum s obeys
// |ŝ−s| ≤ γ_{n+2}·|s| with γ_k = k·u/(1−k·u) ≈ (n+2)·u. The margin is
// (n+2)·2⁻²⁰, about 2³³ times that bound, so ŝ ≥ 1+margin proves s > 1
// and ŝ ≤ 1−margin proves s < 1. Only a sum inside the band falls back
// to the exact sum, so every verdict equals the exact one. The band's
// width costs little: only a load within a few parts per million of 1
// pays for big.Rat.

// utilTerm is stream s's float64 message load T_cycle/T (0 for T <= 0,
// which the exact sum skips too).
func utilTerm(s Stream, tcycle Ticks) float64 {
	if s.T <= 0 {
		return 0
	}
	return float64(tcycle) / float64(s.T)
}

// utilDecided reports whether a float64 sum of up to n utilTerm values
// settles the load test, and if so whether the load is at least 1.
func utilDecided(sum float64, n int) (atLeastOne, decided bool) {
	m := float64(n+2) * 0x1p-20
	switch {
	case sum >= 1+m:
		return true, true
	case sum <= 1-m:
		return false, true
	}
	return false, false
}

// exactUtil returns Σ tcycle/T_j in exact rational arithmetic over the
// given stream indices (nil = all).
func exactUtil(streams []Stream, indices []int, tcycle Ticks) *big.Rat {
	sum, term := new(big.Rat), new(big.Rat)
	if indices == nil {
		for _, s := range streams {
			addUtil(sum, term, s, tcycle)
		}
	} else {
		for _, j := range indices {
			addUtil(sum, term, streams[j], tcycle)
		}
	}
	return sum
}

// addUtil adds stream s's exact load T_cycle/T to sum (nothing for
// T <= 0), using term as scratch.
func addUtil(sum, term *big.Rat, s Stream, tcycle Ticks) {
	if s.T > 0 {
		sum.Add(sum, term.SetFrac64(int64(tcycle), int64(s.T)))
	}
}

var ratOne = big.NewRat(1, 1)

// msgUtilizationAtLeastOne reports Σ tcycle/T_j >= 1 exactly over all
// streams: the float64 filter first, the exact sum inside its band.
func msgUtilizationAtLeastOne(streams []Stream, tcycle Ticks) bool {
	var sum float64
	for _, s := range streams {
		sum += utilTerm(s, tcycle)
	}
	if geq, ok := utilDecided(sum, len(streams)); ok {
		return geq
	}
	return exactUtil(streams, nil, tcycle).Cmp(ratOne) >= 0
}

// DMOptions tunes the deadline-monotonic message response-time analysis
// of Eq. 16.
type DMOptions struct {
	// Literal selects the paper's Eq. 16 exactly as printed:
	//
	//	R_i = T*_cycle + Σ_{j∈hp(i)} ⌈(R_i + J_j)/T_j⌉ · T_cycle
	//
	// with T*_cycle = T_cycle except for the lowest-priority stream,
	// where it is 0. Two aspects make the literal form optimistic in
	// boundary scenarios (quantified by experiment E9): the missing
	// own-transmission token visit on top of the blocking visit, and
	// the ⌈·⌉ interference that misses a request released exactly at
	// the start instant.
	//
	// The default (false) is the revised conservative form mirroring
	// the corrected non-preemptive Eq. 1 mapping: for every request
	// q = 0, 1, … of stream i inside the level-i busy period,
	//
	//	w_i(q) = B_i + q·T_cycle + Σ_{j∈hp(i)} (⌊(w_i(q)+J_j)/T_j⌋+1)·T_cycle
	//	R_i    = J_i + max_q { w_i(q) + T_cycle − q·T_i }
	//
	// with B_i = T_cycle when any lower-priority request (a high
	// stream below i, or any low-priority traffic) can occupy the
	// one-slot stack queue, else 0. The own-jitter term J_i anchors
	// the bound at the nominal release, matching how the simulator
	// measures response times.
	Literal bool
	// BlockingFromLowPriority marks that the master also carries
	// low-priority traffic, which can occupy the stack slot just like a
	// lower-priority high stream (affects B_i for the lowest stream in
	// the revised analysis).
	BlockingFromLowPriority bool
	// Horizon caps the fixed-point iterations (0 = 1<<40).
	Horizon Ticks
}

const defaultMsgHorizon = Ticks(1) << 40

// dmHigherPriority reports whether stream j outranks stream i under DM
// with ties broken by index (stable, matching ap.Queue's FIFO
// tie-break).
func dmHigherPriority(streams []Stream, j, i int) bool {
	if streams[j].D != streams[i].D {
		return streams[j].D < streams[i].D
	}
	return j < i
}

// dmScratch is the reusable working state of one DMResponseTimes call:
// the DM priority order, each stream's rank and the per-rank divergence
// flags from the prefix-utilization sweep. Pooled so repeated analyses
// (the memo layer's misses, the holistic rounds, the topology fixed
// point) stop re-allocating.
type dmScratch struct {
	order  []int  // stream indices, highest DM priority first
	pos    []int  // pos[i] = rank of stream i in order
	hpDiv  []bool // rank k: utilization of order[:k] >= 1 (and k > 0)
	lvlDiv []bool // rank k: utilization of order[:k+1] >= 1
}

var dmScratchPool = sync.Pool{New: func() any { return new(dmScratch) }}

// prepare sizes the scratch, sorts the priority order and evaluates the
// divergence flags with a single prefix-utilization sweep: a float64
// running sum decides each prefix, and a prefix inside the filter's
// band is decided by the exact sum. The first such prefix seeds the
// exact sum, and every later stream is added to it as the sweep passes,
// so however many prefixes fall in the band (a long tail of light
// streams behind a load near 1), the exact work stays one big.Rat
// addition per stream.
func (sc *dmScratch) prepare(streams []Stream, tcycle Ticks) {
	n := len(streams)
	if cap(sc.order) < n {
		sc.order = make([]int, n)
		sc.pos = make([]int, n)
		sc.hpDiv = make([]bool, n)
		sc.lvlDiv = make([]bool, n)
	}
	sc.order = sc.order[:n]
	sc.pos = sc.pos[:n]
	sc.hpDiv = sc.hpDiv[:n]
	sc.lvlDiv = sc.lvlDiv[:n]
	// Stable insertion sort by deadline: starting from the identity
	// permutation with strict-less comparisons reproduces
	// dmHigherPriority's (D, index) order exactly.
	for i := range sc.order {
		sc.order[i] = i
	}
	for i := 1; i < n; i++ {
		j := i
		for j > 0 && streams[sc.order[j]].D < streams[sc.order[j-1]].D {
			sc.order[j], sc.order[j-1] = sc.order[j-1], sc.order[j]
			j--
		}
	}
	var sum float64
	var exact, term *big.Rat // exact prefix sum, once seeded
	for k, idx := range sc.order {
		sc.pos[idx] = k
		sc.hpDiv[k] = k > 0 && sc.lvlDiv[k-1]
		sum += utilTerm(streams[idx], tcycle)
		if exact != nil {
			addUtil(exact, term, streams[idx], tcycle)
		}
		geq, ok := utilDecided(sum, n)
		if !ok {
			if exact == nil {
				exact, term = exactUtil(streams, sc.order[:k+1], tcycle), new(big.Rat)
			}
			geq = exact.Cmp(ratOne) >= 0
		}
		sc.lvlDiv[k] = geq
	}
}

// DMResponseTimes evaluates the worst-case response time of every high
// priority stream of one master under the paper's architecture with a
// DM-ordered AP queue (Eq. 16). Results align with the input order.
// Streams whose iteration exceeds the horizon get timeunit.MaxTicks.
func DMResponseTimes(streams []Stream, tcycle Ticks, opts DMOptions) []Ticks {
	horizon := opts.Horizon
	if horizon <= 0 {
		horizon = defaultMsgHorizon
	}
	sc := dmScratchPool.Get().(*dmScratch)
	sc.prepare(streams, tcycle)
	out := make([]Ticks, len(streams))
	for i := range streams {
		out[i] = dmResponseOne(streams, i, tcycle, opts, horizon, sc)
	}
	dmScratchPool.Put(sc)
	return out
}

func dmResponseOne(streams []Stream, i int, tcycle Ticks, opts DMOptions, horizon Ticks, sc *dmScratch) Ticks {
	// The interference set hp(i) is the priority-order prefix above
	// stream i's rank; interference and busy-period sums below iterate
	// it in priority order, which leaves every result unchanged:
	// saturating sums of non-negative terms are order-independent.
	p := sc.pos[i]
	hp := sc.order[:p]
	// lowerHigh: a lower-priority *high* stream exists below i.
	lowerHigh := p < len(streams)-1
	hasLower := opts.BlockingFromLowPriority || lowerHigh
	// With higher-priority message load at or above one request per
	// token cycle the recurrences diverge; and with the level-i load
	// (hp plus stream i itself) at or above that point the level-i busy
	// period examined by the revised analysis never ends. Report both
	// directly instead of iterating toward the horizon.
	if sc.hpDiv[p] {
		return timeunit.MaxTicks
	}
	if !opts.Literal && sc.lvlDiv[p] {
		return timeunit.MaxTicks
	}

	if opts.Literal {
		// Paper-exact Eq. 16. T* is zero only for the lowest-priority
		// stream (no lower-priority high stream; the paper does not
		// consider low-priority traffic here).
		tstar := tcycle
		if !lowerHigh {
			tstar = 0
		}
		r := tstar
		for range hp {
			r = timeunit.AddSat(r, tcycle) // seed with one visit per hp stream
		}
		for {
			next := tstar
			for _, j := range hp {
				s := streams[j]
				next = timeunit.AddSat(next,
					timeunit.MulSat(timeunit.CeilDiv(r+s.J, s.T), tcycle))
			}
			if next == r {
				return r
			}
			r = next
			if r > horizon || r == timeunit.MaxTicks {
				return timeunit.MaxTicks
			}
		}
	}

	// Revised conservative analysis: every request q of stream i in the
	// level-i busy period, with floor+1 interference counting.
	var blocking Ticks
	if hasLower {
		blocking = tcycle
	}
	si := streams[i]
	solve := func(base Ticks) Ticks {
		w := base
		for range hp {
			w = timeunit.AddSat(w, tcycle)
		}
		if w <= 0 {
			w = 1
		}
		for {
			next := base
			for _, j := range hp {
				s := streams[j]
				next = timeunit.AddSat(next,
					timeunit.MulSat(timeunit.FloorDiv(w+s.J, s.T)+1, tcycle))
			}
			if next == w {
				return w
			}
			w = next
			if w > horizon || w == timeunit.MaxTicks {
				return timeunit.MaxTicks
			}
		}
	}
	// The level-i busy period must include stream i's own requests:
	// higher-priority arrivals can bridge the gap between one request's
	// completion and the next release (push-through), so the number of
	// requests to examine comes from the closed busy period, not from
	// per-request termination. The level set is hp(i) plus i itself.
	busy := blocking
	for range p + 1 {
		busy = timeunit.AddSat(busy, tcycle)
	}
	levelTerm := func(w Ticks, s Stream) Ticks {
		return timeunit.MulSat(timeunit.CeilDiv(w+s.J, s.T), tcycle)
	}
	for {
		next := blocking
		for _, j := range hp {
			next = timeunit.AddSat(next, levelTerm(busy, streams[j]))
		}
		next = timeunit.AddSat(next, levelTerm(busy, si))
		if next == busy {
			break
		}
		busy = next
		if busy >= horizon || busy == timeunit.MaxTicks {
			return timeunit.MaxTicks
		}
	}
	njobs := timeunit.CeilDiv(busy+si.J, si.T)
	if njobs < 1 {
		njobs = 1
	}
	const maxJobs = 1 << 17 // backstop against near-saturation crawls
	if njobs > maxJobs {
		return timeunit.MaxTicks
	}
	var best Ticks
	for q := Ticks(0); q < njobs; q++ {
		w := solve(timeunit.AddSat(blocking, timeunit.MulSat(q, tcycle)))
		if w == timeunit.MaxTicks {
			return timeunit.MaxTicks
		}
		finish := timeunit.AddSat(w, tcycle)
		r := finish - timeunit.MulSat(q, si.T)
		if r > best {
			best = r
		}
	}
	return timeunit.AddSat(best, si.J)
}

// DMSchedulable applies Eq. 16 (in the selected variant) across a
// network whose masters all use DM dispatching, with T_cycle from
// Eq. 14, and checks R <= D per stream.
func DMSchedulable(n Network, opts DMOptions) (bool, []StreamVerdict) {
	return SchedulableWith(n, func(m Master, tc Ticks) []Ticks {
		o := opts
		if m.LongestLow > 0 {
			o.BlockingFromLowPriority = true
		}
		return DMResponseTimes(m.High, tc, o)
	})
}
