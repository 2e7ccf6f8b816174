package memo

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"slices"
	"sync"
	"unsafe"

	"profirt/internal/core"
	"profirt/internal/timeunit"
)

// Ticks aliases the shared time base.
type Ticks = timeunit.Ticks

// Kind tags which analysis a key addresses, so equal stream sets under
// different analyses can never collide.
type Kind byte

// Analysis kinds.
const (
	// KindDM keys the Eq. 16 deadline-monotonic message RTA.
	KindDM Kind = 1
	// KindEDF keys the Eqs. 17–18 EDF message RTA.
	KindEDF Kind = 2
	// KindHolistic keys whole holistic.Analyze results on the full
	// configuration encoding (see Enc).
	KindHolistic Kind = 3
	// KindTopology keys whole topology.Analyze results on the full
	// topology + options encoding.
	KindTopology Kind = 4
)

// keyVersion is bumped whenever the canonical encoding or the analysed
// semantics change, invalidating every previously computed address.
const keyVersion = 1

// streamCmp is the canonical total preorder on normalized streams:
// (D, T, Ch, J) lexicographically. Names are excluded — they never
// enter the response-time arithmetic. (A switch, not cmp.Or, which
// evaluates all four comparisons.)
func streamCmp(a, b *core.Stream) int {
	switch {
	case a.D != b.D:
		return cmp.Compare(a.D, b.D)
	case a.T != b.T:
		return cmp.Compare(a.T, b.T)
	case a.Ch != b.Ch:
		return cmp.Compare(a.Ch, b.Ch)
	}
	return cmp.Compare(a.J, b.J)
}

func sameTuple(a, b *core.Stream) bool {
	return a.Ch == b.Ch && a.D == b.D && a.T == b.T && a.J == b.J
}

// keyScratch carries the canonicalization and encoding buffers of the
// lookups of one wrapper invocation (one network's masters for the
// network wrappers). Pooled: the wrappers run once per analysis call on
// the batch hot path, and the index/canon/perm/encode allocations used
// to dominate the cost of a lookup.
type keyScratch struct {
	idx   []int
	perm  []int
	canon []core.Stream
	buf   []byte
}

var keyScratchPool = sync.Pool{New: func() any { return new(keyScratch) }}

// build computes the content address for one (kind, tcycle, opts,
// stream set) analysis invocation, leaving the canonical stream
// ordering in sc.idx (caller indices, canonical first) and the
// permutation in sc.perm with perm[i] = canonical position of caller
// stream i, so cached canonical-order results map back to the caller's
// order. A hit needs only perm; canonical builds the stream copies a
// miss analyses.
//
// The canonical ordering sorts streams by (D, T, Ch, J), making the
// key order-insensitive: permuting the caller's streams yields the
// same key and the same (re-permuted) results. That normalization is
// sound because the FCFS/DM/EDF message analyses are permutation-
// equivariant — every stream's bound depends only on its own attributes
// and the multiset of the others — with one exception: the DM analysis
// breaks deadline ties by input position. When kind is order-sensitive
// (DM) and two streams with equal D differ in any other attribute, the
// input order carries meaning, so the key falls back to encoding the
// caller's order verbatim (flagged in the digest) and the canonical
// ordering degenerates to the input order. Identical duplicate streams
// never force the fallback: interchangeable tuples are interchangeable
// positions. Either way, cached and uncached results stay byte-
// identical.
//
// opts carries the flattened analysis options; kind-distinct layouts
// may reuse word positions because kind itself is part of the digest.
func (sc *keyScratch) build(kind Kind, tcycle Ticks, opts []uint64, streams []core.Stream, orderSensitive bool) Key {
	n := len(streams)
	if cap(sc.idx) < n {
		sc.idx = make([]int, n)
		sc.perm = make([]int, n)
	}
	idx := sc.idx[:n]
	for i := range idx {
		idx[i] = i
	}
	ordered := sortCanonical(idx, streams) && orderSensitive
	if ordered {
		for i := range idx {
			idx[i] = i
		}
	}

	perm := sc.perm[:n]
	for pos, orig := range idx {
		perm[orig] = pos
	}
	sc.idx, sc.perm = idx, perm

	// The digest byte stream is three header bytes, then little-endian
	// words: tcycle, the option count, the options, the stream count and
	// (Ch, D, T, J) per stream in canonical order. It is unchanged from
	// the streaming sha256.New formulation. The words are gathered in a
	// stack array, indexed directly (unchecked by the race detector, as
	// in sortCanonical), and appended as bytes a chunk at a time (see
	// appendWords).
	buf := append(sc.buf[:0], keyVersion, byte(kind), flag(ordered))
	var w [64]uint64
	w[0], w[1] = uint64(tcycle), uint64(len(opts))
	buf = appendWords(buf, w[:2])
	buf = appendWords(buf, opts)
	w[0] = uint64(n)
	k := 1
	for _, orig := range idx {
		if k+4 > len(w) {
			buf = appendWords(buf, w[:k])
			k = 0
		}
		s := &streams[orig]
		w[k], w[k+1], w[k+2], w[k+3] = uint64(s.Ch), uint64(s.D), uint64(s.T), uint64(s.J)
		k += 4
	}
	buf = appendWords(buf, w[:k])
	sc.buf = buf
	return sha256.Sum256(buf)
}

// nativeLittleEndian reports whether the host stores a uint64 as its
// little-endian bytes.
var nativeLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// appendWords appends w to b as little-endian bytes. On a
// little-endian host those bytes are w's own memory, appended with one
// copy; elsewhere each word is encoded in turn. The two produce the
// same bytes. The copy matters under the race detector, which checks
// each of the eight byte stores of binary.LittleEndian.AppendUint64
// separately but a copy once, and which otherwise made the encoding
// the largest single cost of a cache hit.
func appendWords(b []byte, w []uint64) []byte {
	if nativeLittleEndian {
		return append(b, unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(w))), 8*len(w))...)
	}
	for _, v := range w {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	return b
}

// canonical returns the streams of the last build in canonical order
// with names stripped: the input a miss runs the analysis on.
func (sc *keyScratch) canonical(streams []core.Stream) []core.Stream {
	canon := sc.canon[:0]
	for _, orig := range sc.idx {
		s := streams[orig]
		s.Name = ""
		canon = append(canon, s)
	}
	sc.canon = canon
	return canon
}

// smallSort is the largest stream set sortCanonical sorts on the stack.
const smallSort = 16

// sortCanonical sorts idx, the identity on entry, into the canonical
// stream order, and reports whether two streams with equal deadlines
// differ in another attribute (the DM tie that build must not
// reorder). Stable: equal tuples keep the caller's relative order, so
// duplicate streams map back onto themselves. A master's handful of
// streams is sorted by insertion on stack copies of the (D, T, Ch, J)
// tuples, indexed directly so that no access goes through a pointer:
// each stream is read once, and under the race detector, which checks
// every heap access but not these, the sort stops being the largest
// share of a cache hit. Larger sets use slices.SortStableFunc.
func sortCanonical(idx []int, streams []core.Stream) (tie bool) {
	n := len(idx)
	if n > smallSort {
		slices.SortStableFunc(idx, func(x, y int) int {
			return streamCmp(&streams[x], &streams[y])
		})
		for k := 1; k < n; k++ {
			a, b := &streams[idx[k-1]], &streams[idx[k]]
			if a.D == b.D && !sameTuple(a, b) {
				return true
			}
		}
		return false
	}
	var t [smallSort][4]Ticks
	var ix [smallSort]int
	for i := range n {
		s := &streams[i]
		t[i] = [4]Ticks{s.D, s.T, s.Ch, s.J}
		ix[i] = i
	}
	for i := 1; i < n; i++ {
		for j := i; j > 0; j-- {
			a, b := ix[j], ix[j-1]
			f := 0
			for f < 3 && t[a][f] == t[b][f] {
				f++
			}
			if t[a][f] >= t[b][f] {
				break
			}
			ix[j], ix[j-1] = b, a
		}
	}
	copy(idx, ix[:n])
	for k := 1; k < n; k++ {
		if a, b := ix[k-1], ix[k]; t[a][0] == t[b][0] && t[a] != t[b] {
			return true
		}
	}
	return false
}

// streamSetKey is the standalone form of keyScratch.build for tests
// and one-shot callers: it returns the key, the canonical stream
// ordering the underlying analysis should run on (names stripped), and
// the caller-to-canonical permutation.
func streamSetKey(kind Kind, tcycle Ticks, opts []uint64, streams []core.Stream, orderSensitive bool) (Key, []core.Stream, []int) {
	sc := new(keyScratch)
	k := sc.build(kind, tcycle, opts, streams, orderSensitive)
	return k, sc.canonical(streams), sc.perm
}

func flag(b bool) byte {
	if b {
		return 1
	}
	return 0
}
