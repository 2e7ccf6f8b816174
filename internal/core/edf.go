package core

import (
	"slices"
	"sync"

	"profirt/internal/timeunit"
)

// EDFOptions tunes the EDF message response-time analysis of
// Eqs. 17–18.
type EDFOptions struct {
	// BlockingFromLowPriority marks that low-priority traffic can
	// occupy the stack slot (it always has a "later deadline" for the
	// blocking term).
	BlockingFromLowPriority bool
	// Horizon caps the busy-period window and iterations (0 = 1<<40
	// for iterations, busy period for the candidate window).
	Horizon Ticks
}

// EDFResponseTimes evaluates the worst-case response time of every
// high-priority stream of one master under the paper's architecture
// with an EDF-ordered AP queue (Eqs. 17–18):
//
//	R_i(a) = max{ T_cycle, L_i(a) + T_cycle − a }
//	L_i(a) = T*_cycle + W*_i(a, L_i(a)) + ⌊a/T_i⌋·T_cycle
//	W*_i(a,t) = Σ_{j≠i, D_j−J_j ≤ a+D_i}
//	            min{ 1+⌊(t+J_j)/T_j⌋, 1+⌊(a+D_i−D_j+J_j)/T_j⌋ } · T_cycle
//
// with T*_cycle = T_cycle when some request with an absolute deadline
// beyond a+D_i can hold the one-slot stack queue, else 0. On top of the
// paper's formulation, the stream's own release jitter J_i is added to
// the result so the bound is anchored at the nominal release (matching
// the simulator's measurement and the Sec. 4.1 inheritance model).
// Results align with the input order; streams whose iteration diverges
// get timeunit.MaxTicks.
func EDFResponseTimes(streams []Stream, tcycle Ticks, opts EDFOptions) []Ticks {
	out := make([]Ticks, len(streams))
	if len(streams) == 0 {
		return out
	}
	horizon := opts.Horizon
	if horizon <= 0 {
		horizon = defaultMsgHorizon
	}

	// The candidate window is the synchronous busy period in token-
	// cycle units, with one blocking visit: it diverges when the
	// message utilisation Σ T_cycle/T_j reaches 1 (checked exactly up
	// front so the iteration never crawls toward a huge horizon).
	if msgUtilizationAtLeastOne(streams, tcycle) {
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

	sc := edfScratchPool.Get().(*edfScratch)
	for i := range streams {
		out[i] = edfMessageResponseOne(streams, i, tcycle, busy, opts, horizon, sc)
	}
	sc.cands = sc.cands[:0]
	edfScratchPool.Put(sc)
	return out
}

// edfScratch holds the candidate-offset and interference-term buffers
// reused across the per-stream evaluations of one EDFResponseTimes call
// (and, via the pool, across calls).
type edfScratch struct {
	cands []Ticks
	terms []edfTerm
}

// edfTerm is one interfering stream j at one candidate offset a: its
// jitter and period for the by-rate count 1+⌊(t+J_j)/T_j⌋ and the
// by-deadline cap 1+⌊(a+D_i−D_j+J_j)/T_j⌋, which does not depend on t.
type edfTerm struct {
	jit, per, cap Ticks
}

var edfScratchPool = sync.Pool{New: func() any { return new(edfScratch) }}

// edfMessageBusyPeriod bounds the window of release offsets worth
// examining: least fixed point of
// L = T_cycle + Σ_j ⌈(L+J_j)/T_j⌉·T_cycle, capped at horizon.
func edfMessageBusyPeriod(streams []Stream, tcycle, horizon Ticks) Ticks {
	l := tcycle
	for range streams {
		l = timeunit.AddSat(l, tcycle)
	}
	for {
		next := tcycle
		for _, s := range streams {
			next = timeunit.AddSat(next,
				timeunit.MulSat(timeunit.CeilDiv(l+s.J, s.T), tcycle))
		}
		if next == l {
			return l
		}
		l = next
		if l >= horizon || l == timeunit.MaxTicks {
			return horizon
		}
	}
}

// edfMessageCandidates enumerates the paper's Eq. 10 offsets adapted
// with jitter: a ∈ ∪_j {k·T_j + D_j − D_i − J_j} ∪ {0}, clipped to
// [0, limit]. The result is sorted and duplicate-free, built in the
// reusable buffer.
func edfMessageCandidates(buf []Ticks, streams []Stream, i int, limit Ticks) []Ticks {
	out := append(buf[:0], 0)
	di := streams[i].D
	for _, s := range streams {
		base := s.D - di - s.J
		for k := Ticks(0); ; k++ {
			a := base + timeunit.MulSat(k, s.T)
			if a > limit {
				break
			}
			if a >= 0 {
				out = append(out, a)
			}
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// edfMessageResponseOne takes the least fixed point L_i(a) of Eq. 18 at
// every candidate offset a and returns the largest Eq. 17 bound. Three
// things keep it cheap without changing a result:
//   - a stream's deadline cap does not depend on L, so it is computed
//     once per offset, not once per iteration;
//   - the W*_i summands (each at least 1) and ⌊a/T_i⌋ count whole token
//     visits, so their saturating sum is multiplied by T_cycle once;
//     the blocking visit is added in ticks, since MulSat saturates a
//     negative product and a counted visit would turn a lone blocking
//     visit under T_cycle < 0 into MaxTicks;
//   - the offsets ascend, and while the blocking term stays the same
//     the right-hand side only grows with a (more streams qualify, caps
//     and ⌊a/T_i⌋ grow), so the previous offset's fixed point lies at
//     or below this one's least fixed point and the iteration starts
//     there. A value accepted without a step is either the blocking
//     term, which a cold start accepts unchecked as well, or passed an
//     earlier offset's horizon check, whose limit is no larger.
func edfMessageResponseOne(streams []Stream, i int, tcycle, busy Ticks, opts EDFOptions, horizon Ticks, sc *edfScratch) Ticks {
	si := streams[i]
	var best, l, prevBlocking Ticks
	sc.cands = edfMessageCandidates(sc.cands, streams, i, busy)
	for k, a := range sc.cands {
		adi := a + si.D

		// Blocking: one stack-slot occupant with a later absolute
		// deadline (or any low-priority request). Every other stream
		// interferes, capped by its deadline count at this offset.
		var blocking Ticks
		if opts.BlockingFromLowPriority {
			blocking = tcycle
		}
		terms := sc.terms[:0]
		for j, s := range streams {
			if j == i {
				continue
			}
			if s.D-s.J > adi {
				blocking = tcycle
				continue
			}
			terms = append(terms, edfTerm{jit: s.J, per: s.T, cap: 1 + timeunit.FloorDiv(adi-s.D+s.J, s.T)})
		}
		sc.terms = terms

		earlier := timeunit.FloorDiv(a, si.T)
		if k == 0 || blocking != prevBlocking {
			l = blocking
		}
		prevBlocking = blocking
		limit := timeunit.AddSat(horizon, a)
		for {
			visits := earlier
			for _, t := range terms {
				visits = timeunit.AddSat(visits,
					timeunit.Min(1+timeunit.FloorDiv(l+t.jit, t.per), t.cap))
			}
			next := timeunit.AddSat(blocking, timeunit.MulSat(visits, tcycle))
			if next == l {
				break
			}
			l = next
			if l > limit || l == timeunit.MaxTicks {
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

// EDFSchedulableNet applies Eqs. 17–18 across a network whose masters
// all use EDF dispatching, with T_cycle from Eq. 14.
func EDFSchedulableNet(n Network, opts EDFOptions) (bool, []StreamVerdict) {
	return SchedulableWith(n, func(m Master, tc Ticks) []Ticks {
		o := opts
		if m.LongestLow > 0 {
			o.BlockingFromLowPriority = true
		}
		return EDFResponseTimes(m.High, tc, o)
	})
}
