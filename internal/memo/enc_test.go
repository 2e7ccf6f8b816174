package memo

import (
	"math/rand"
	"testing"

	"profirt/internal/core"
)

// TestEncodedLookupRoundTrip: a Put under EncKey must make the
// identical encoding hit; distinct encodings and distinct kinds must
// miss.
func TestEncodedLookupRoundTrip(t *testing.T) {
	c := New(0)
	enc := func(words ...uint64) *Enc {
		e := GetEnc()
		for _, w := range words {
			e.Word(w)
		}
		return e
	}

	e1 := enc(1, 2, 3)
	if v, ok := c.Get(EncKey(KindHolistic, e1)); ok {
		t.Fatalf("empty cache hit: %v", v)
	}
	c.Put(EncKey(KindHolistic, e1), "hol")
	if v, ok := c.Get(EncKey(KindHolistic, e1)); !ok || v != "hol" {
		t.Fatalf("stored encoding missed: %v %v", v, ok)
	}
	// Same bytes, different kind: must not collide.
	if v, ok := c.Get(EncKey(KindTopology, e1)); ok {
		t.Fatalf("kind collision: %v", v)
	}
	// Different bytes: miss.
	e2 := enc(1, 2, 4)
	if _, ok := c.Get(EncKey(KindHolistic, e2)); ok {
		t.Fatal("distinct encoding hit")
	}
	PutEnc(e1)
	PutEnc(e2)
}

// autoStreams draws n random streams; distinct draws almost never
// repeat a stream set, so lookups on them are all-distinct misses.
func autoStreams(rng *rand.Rand, n int) []core.Stream {
	streams := make([]core.Stream, n)
	for i := range streams {
		T := core.Ticks(50_000 + rng.Intn(200_000))
		streams[i] = core.Stream{
			Ch: core.Ticks(200 + rng.Intn(400)),
			D:  T - core.Ticks(rng.Intn(10_000)),
			T:  T,
			J:  core.Ticks(rng.Intn(2_000)),
		}
	}
	return streams
}

// TestCacheMissCountsAndStores: every all-distinct lookup counts as
// exactly one miss and stores one entry.
func TestCacheMissCountsAndStores(t *testing.T) {
	c := New(0)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 10; i++ {
		DMResponseTimes(c, autoStreams(rng, 5), 2_500, core.DMOptions{})
	}
	st := c.Stats()
	if st.Misses != 10 || st.Hits != 0 {
		t.Fatalf("10 all-distinct lookups: stats %+v", st)
	}
	if st.Entries != 10 {
		t.Fatalf("every miss must still populate the table: %+v", st)
	}
}

// TestCacheEvictionChurnMatchesUncached: with a tiny cache, re-queries
// of evicted sets recompute (and re-insert), and results stay
// identical to the uncached analysis throughout.
func TestCacheEvictionChurnMatchesUncached(t *testing.T) {
	c := New(1) // one entry per shard: heavy eviction traffic
	rng := rand.New(rand.NewSource(5))
	sets := make([][]core.Stream, 300)
	for i := range sets {
		sets[i] = autoStreams(rng, 4)
	}
	for _, s := range sets {
		DMResponseTimes(c, s, 2_500, core.DMOptions{})
	}
	for i, s := range sets {
		got := DMResponseTimes(c, s, 2_500, core.DMOptions{})
		want := core.DMResponseTimes(s, 2_500, core.DMOptions{})
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("set %d diverged after eviction churn", i)
			}
		}
	}
}
