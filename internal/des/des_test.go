package des

import (
	"testing"
)

// recorder dispatches every event into a log of (Now, payload X) pairs.
type recorder struct {
	times []Ticks
	xs    []int32
}

func newRecorder(e *Engine) *recorder {
	r := &recorder{}
	e.SetDispatch(func(p Payload) {
		r.times = append(r.times, e.Now())
		r.xs = append(r.xs, p.X)
	})
	return r
}

func TestEventOrdering(t *testing.T) {
	var e Engine
	r := newRecorder(&e)
	e.SchedulePayload(10, 0, Payload{X: 1})
	e.SchedulePayload(5, 0, Payload{X: 0})
	e.SchedulePayload(10, 0, Payload{X: 2}) // same time, later insertion
	e.Run(100)
	if len(r.xs) != 3 || r.xs[0] != 0 || r.xs[1] != 1 || r.xs[2] != 2 {
		t.Errorf("order = %v, want [0 1 2]", r.xs)
	}
	if e.Now() != 100 {
		t.Errorf("Now = %v, want horizon 100", e.Now())
	}
	if e.Processed != 3 {
		t.Errorf("Processed = %d, want 3", e.Processed)
	}
}

func TestSameInstantPriority(t *testing.T) {
	var e Engine
	r := newRecorder(&e)
	e.SchedulePayload(7, 2, Payload{X: 2})
	e.SchedulePayload(7, 1, Payload{X: 1})
	e.Run(10)
	if len(r.xs) != 2 || r.xs[0] != 1 || r.xs[1] != 2 {
		t.Errorf("priority order wrong: %v", r.xs)
	}
}

func TestScheduleAfterAndNesting(t *testing.T) {
	var e Engine
	var fired []Ticks
	e.SetDispatch(func(p Payload) {
		fired = append(fired, e.Now())
		if p.Kind == 0 {
			e.SchedulePayload(e.Now()+4, 0, Payload{Kind: 1})
		}
	})
	e.SchedulePayload(3, 0, Payload{})
	e.Run(100)
	if len(fired) != 2 || fired[0] != 3 || fired[1] != 7 {
		t.Errorf("fired = %v, want [3 7]", fired)
	}
}

func TestHorizonExcludesBoundary(t *testing.T) {
	var e Engine
	r := newRecorder(&e)
	e.SchedulePayload(10, 0, Payload{})
	e.Run(10)
	if len(r.xs) != 0 {
		t.Error("event at the horizon must not fire")
	}
	// Resuming with a larger horizon fires it.
	e.Run(11)
	if len(r.xs) != 1 {
		t.Error("resumed run must fire the deferred event")
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	var e Engine
	e.SetDispatch(func(Payload) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling into the past")
			}
		}()
		e.SchedulePayload(3, 0, Payload{})
	})
	e.SchedulePayload(5, 0, Payload{})
	e.Run(10)
}

func TestPayloadDispatchOrdering(t *testing.T) {
	var e Engine
	var got []Payload
	e.SetDispatch(func(p Payload) { got = append(got, p) })
	e.SchedulePayload(10, 0, Payload{Kind: 2, X: 2})
	e.SchedulePayload(5, 0, Payload{Kind: 1, X: 1, A: 99})
	e.SchedulePayload(10, -1, Payload{Kind: 3, X: 3}) // same instant, higher prio
	e.Run(100)
	if len(got) != 3 || got[0].X != 1 || got[1].X != 3 || got[2].X != 2 {
		t.Errorf("payload order = %v, want X sequence 1,3,2", got)
	}
	if got[0].A != 99 || got[0].Kind != 1 {
		t.Errorf("payload fields not carried: %+v", got[0])
	}
	if e.Processed != 3 {
		t.Errorf("Processed = %d, want 3", e.Processed)
	}
}

// scatter schedules 100 events at scattered instants and runs them,
// returning the firing log.
func scatter(e *Engine) []Ticks {
	r := newRecorder(e)
	for i := 0; i < 100; i++ {
		e.SchedulePayload(Ticks((i*31)%97), 0, Payload{X: int32(i)})
	}
	e.Run(1000)
	return r.times
}

func TestResetReuse(t *testing.T) {
	var fresh Engine
	want := scatter(&fresh)

	var reused Engine
	scatter(&reused)                           // dirty the engine
	reused.SchedulePayload(2000, 0, Payload{}) // left pending past the horizon
	reused.Reset()
	if reused.Now() != 0 || reused.Processed != 0 {
		t.Fatalf("Reset left state: now=%d processed=%d", reused.Now(), reused.Processed)
	}
	if r := newRecorder(&reused); reused.Run(5000) != 5000 || len(r.times) != 0 {
		t.Fatalf("events survived Reset: fired at %v", r.times)
	}
	reused.Reset()
	got := scatter(&reused)
	if len(got) != len(want) {
		t.Fatalf("lengths %d/%d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("reused engine diverged at %d: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestManyEventsDeterministic(t *testing.T) {
	run := func() []Ticks {
		var e Engine
		r := newRecorder(&e)
		for i := 0; i < 500; i++ {
			e.SchedulePayload(Ticks((i*7919)%1000), 0, Payload{X: int32(i)})
		}
		e.Run(1000)
		return r.times
	}
	a, b := run(), run()
	if len(a) != 500 || len(b) != 500 {
		t.Fatalf("lengths %d/%d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic at %d: %v vs %v", i, a[i], b[i])
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("time went backwards at %d", i)
		}
	}
}
