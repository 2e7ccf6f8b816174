package core

import "slices"

// SchedulableWith applies a per-master response-time bounds function
// across the network under T_cycle from Eq. 14 and folds the Eq. 12
// style per-stream condition R <= D into verdicts. It is the single
// verdict-assembly shared by the DM/EDF network tests below and their
// memoized mirrors (internal/memo), so verdict semantics cannot drift
// between the cached and uncached paths. Each slice bounds returns is
// read before the next call, so bounds may reuse one buffer.
func SchedulableWith(n Network, bounds func(m Master, tc Ticks) []Ticks) (bool, []StreamVerdict) {
	tc := n.TokenCycle()
	ok := true
	out := n.verdictBuf()
	for _, m := range n.Masters {
		rs := bounds(m, tc)
		for i, s := range m.High {
			v := StreamVerdict{Master: m.Name, Stream: s.Name, D: s.D, R: rs[i], OK: rs[i] <= s.D}
			if !v.OK {
				ok = false
			}
			out = append(out, v)
		}
	}
	return ok, out
}

// verdictBuf returns an empty verdict slice with room for every
// high-priority stream of the network, so the verdict loops never grow
// it. A network without high-priority streams gets nil verdicts.
func (n Network) verdictBuf() []StreamVerdict {
	c := 0
	for _, m := range n.Masters {
		c += len(m.High)
	}
	return slices.Grow([]StreamVerdict(nil), c)
}
