package main

import (
	"io"
	"math"
	"testing"
	"time"
)

// TestTailPercentileRule checks the rule on the tail each workload
// reports: the operation count a loop must reach leaves at least ten
// samples beyond the tail percentile, and one fewer would not.
func TestTailPercentileRule(t *testing.T) {
	for _, w := range workloads {
		n := minSamplesFor(w.tail)
		if beyond(n, w.tail) < 10 {
			t.Errorf("%s: p%v of %d samples leaves %d beyond it", w.name, w.tail, n, beyond(n, w.tail))
		}
		if beyond(n-1, w.tail) >= 10 {
			t.Errorf("%s: minSamplesFor(%v) = %d is not minimal", w.name, w.tail, n)
		}
	}
	for _, c := range []struct {
		p    float64
		want int
	}{{50, 20}, {75, 40}, {90, 100}, {95, 200}, {99, 1000}} {
		if got := minSamplesFor(c.p); got != c.want {
			t.Errorf("minSamplesFor(%v) = %d, want %d", c.p, got, c.want)
		}
	}
}

// TestShortLoopFails: a measured loop that ends short of the samples
// its tail percentile needs makes the result incorrect.
func TestShortLoopFails(t *testing.T) {
	w, _ := workloadByName("serve-analyze")
	e := &env{wl: w, values: map[string]float64{}, log: io.Discard}
	lats := make([]float64, e.minOps()-1)
	for i := range lats {
		lats[i] = 1
	}
	reportLoop(e, loopStats{lats: lats, ok: len(lats), elapsed: time.Second})
	if _, failed := e.led.totals(); failed != 1 {
		t.Fatalf("a loop of %d operations for p%v passed", len(lats), w.tail)
	}
	e = &env{wl: w, values: map[string]float64{}, log: io.Discard}
	lats = append(lats, 1)
	reportLoop(e, loopStats{lats: lats, ok: len(lats), elapsed: time.Second})
	if _, failed := e.led.totals(); failed != 0 {
		t.Fatalf("a loop of %d operations for p%v failed", len(lats), w.tail)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {25, 2}, {100, 5}, {90, 4.6}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of nothing should be NaN")
	}
	// Failed operations are +Inf and count as missing any limit.
	withFail := []float64{1, 2, 3, math.Inf(1)}
	if got := percentile(withFail, 50); got != 2.5 {
		t.Errorf("p50 with one failure = %v, want 2.5", got)
	}
	if got := percentile(withFail, 99); !math.IsInf(got, 1) {
		t.Errorf("p99 reaching a failure = %v, want +Inf", got)
	}
}
