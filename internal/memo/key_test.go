package memo

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"profirt/internal/core"
)

// refStreamSetKey is the plain form of keyScratch.build: a stable sort
// by (D, T, Ch, J), the DM tie fallback checked on the sorted order, and
// the digest bytes appended one word at a time.
func refStreamSetKey(kind Kind, tcycle Ticks, opts []uint64, streams []core.Stream, orderSensitive bool) (key Key, perm []int, ordered bool) {
	idx := make([]int, len(streams))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(x, y int) bool {
		a, b := streams[idx[x]], streams[idx[y]]
		switch {
		case a.D != b.D:
			return a.D < b.D
		case a.T != b.T:
			return a.T < b.T
		case a.Ch != b.Ch:
			return a.Ch < b.Ch
		default:
			return a.J < b.J
		}
	})
	for k := 1; orderSensitive && k < len(idx); k++ {
		a, b := streams[idx[k-1]], streams[idx[k]]
		if a.D == b.D && (a.T != b.T || a.Ch != b.Ch || a.J != b.J) {
			ordered = true
		}
	}
	if ordered {
		for i := range idx {
			idx[i] = i
		}
	}
	buf := []byte{keyVersion, byte(kind), flag(ordered)}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(tcycle))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(opts)))
	for _, o := range opts {
		buf = binary.LittleEndian.AppendUint64(buf, o)
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(streams)))
	for _, i := range idx {
		s := streams[i]
		for _, v := range []Ticks{s.Ch, s.D, s.T, s.J} {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
		}
	}
	perm = make([]int, len(streams))
	for pos, orig := range idx {
		perm[orig] = pos
	}
	return sha256.Sum256(buf), perm, ordered
}

// TestKeyMatchesReference holds the stack sort, the chunked word
// encoding and the scratch reuse of keyScratch.build to the plain
// form, on random sets small enough for the stack sort and larger, with
// values drawn from a handful so deadline ties and duplicates are
// common. One scratch serves every case, as the pool's scratches do.
func TestKeyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pick := func() Ticks { return Ticks(1 + rng.Intn(4)) }
	sc := new(keyScratch)
	fallbacks := 0
	for c := 0; c < 3_000; c++ {
		n := 1 + rng.Intn(smallSort+1)
		if c%4 == 0 {
			n = 1 + rng.Intn(60)
		}
		streams := make([]core.Stream, n)
		for i := range streams {
			streams[i] = core.Stream{Name: "s", Ch: pick(), D: 100 * pick(), T: 1000 * pick(), J: pick() - 1}
		}
		opts := make([]uint64, rng.Intn(4))
		for i := range opts {
			opts[i] = rng.Uint64()
		}
		kind, orderSensitive := KindEDF, false
		if c%2 == 0 {
			kind, orderSensitive = KindDM, true
		}
		tc := Ticks(rng.Int63n(1 << 40))
		want, wantPerm, ordered := refStreamSetKey(kind, tc, opts, streams, orderSensitive)
		if got := sc.build(kind, tc, opts, streams, orderSensitive); got != want {
			t.Fatalf("case %d (%d streams, kind %d): key differs from the plain encoding", c, n, kind)
		}
		if !slices.Equal(sc.perm, wantPerm) {
			t.Fatalf("case %d: perm %v, want %v", c, sc.perm, wantPerm)
		}
		canon := sc.canonical(streams)
		for i, s := range streams {
			s.Name = ""
			if canon[sc.perm[i]] != s {
				t.Fatalf("case %d: canonical[perm[%d]] = %+v, want %+v", c, i, canon[sc.perm[i]], s)
			}
		}
		if key, _, _ := streamSetKey(kind, tc, opts, streams, orderSensitive); key != want {
			t.Fatalf("case %d: streamSetKey differs from a reused scratch", c)
		}
		if ordered {
			fallbacks++
		}
	}
	if fallbacks == 0 {
		t.Error("no case took the DM tie fallback")
	}
}

// TestKeyDigestPinned pins three digests of the canonical encoding, as
// computed before the stack sort and word encoding were introduced:
// a DM set with a deadline tie (caller order kept), the same set under
// EDF (canonical order) and a DM set whose only tie is a duplicate.
func TestKeyDigestPinned(t *testing.T) {
	streams := []core.Stream{
		{Name: "x", Ch: 300, D: 20_000, T: 40_000, J: 0},
		{Name: "y", Ch: 450, D: 60_000, T: 120_000, J: 500},
		{Name: "z", Ch: 500, D: 150_000, T: 300_000, J: 0},
		{Name: "w", Ch: 500, D: 150_000, T: 300_000, J: 0},
		{Name: "v", Ch: 200, D: 60_000, T: 90_000, J: 7},
	}
	opts := []uint64{3, 1 << 40}
	for _, c := range []struct {
		kind    Kind
		streams []core.Stream
		want    string
	}{
		{KindDM, streams, "f4c375d8fc237bf40e077c8c50ef4104580e7d1bb4994447f573d87e2497a654"},
		{KindEDF, streams, "56f40dd709c4c81c6c53613ebf15ba98ecbc7fa595d6e8dcdec11268e578f8c0"},
		{KindDM, streams[:4], "0e8d5a529180d49dcc9701ef0a74267ef07f93fb04e3dd3a24fc63303f6b2a2b"},
	} {
		k, _, _ := streamSetKey(c.kind, 2_500, opts, c.streams, c.kind == KindDM)
		if got := hex.EncodeToString(k[:]); got != c.want {
			t.Errorf("kind %d, %d streams: digest %s, want %s", c.kind, len(c.streams), got, c.want)
		}
	}
}
