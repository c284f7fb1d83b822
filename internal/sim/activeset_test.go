package sim

import "testing"

// fakeQuiescer is quiescent whenever quiet reports true; it counts dense
// ticks and fast-forwarded cycles so tests can assert exactly which path
// the kernel took each cycle.
type fakeQuiescer struct {
	quiet func(now uint64) bool
	ticks []uint64
	ffwd  uint64
}

func (f *fakeQuiescer) Tick(now uint64)           { f.ticks = append(f.ticks, now) }
func (f *fakeQuiescer) Quiescent(now uint64) bool { return f.quiet(now) }
func (f *fakeQuiescer) FastForward(cycles uint64) { f.ffwd += cycles }

// fakeSleeper adds a wake schedule: quiescent except at multiples of
// period.
type fakeSleeper struct {
	fakeQuiescer
	period uint64
}

func newFakeSleeper(period uint64) *fakeSleeper {
	s := &fakeSleeper{period: period}
	s.quiet = func(now uint64) bool { return now%period != 0 }
	return s
}

func (s *fakeSleeper) NextWake(now uint64) (uint64, bool) {
	return now + (s.period - now%s.period), true
}

func TestKernelSkipsQuiescentTickers(t *testing.T) {
	k := NewKernel()
	busy := &fakeQuiescer{quiet: func(uint64) bool { return false }}
	idle := &fakeQuiescer{quiet: func(uint64) bool { return true }}
	k.Register(busy)
	k.Register(idle)
	k.Run(10)
	if len(busy.ticks) != 10 || busy.ffwd != 0 {
		t.Errorf("busy: %d ticks, %d ffwd cycles; want 10, 0", len(busy.ticks), busy.ffwd)
	}
	if len(idle.ticks) != 0 || idle.ffwd != 10 {
		t.Errorf("idle: %d ticks, %d ffwd cycles; want 0, 10", len(idle.ticks), idle.ffwd)
	}
	if k.Now() != 10 {
		t.Errorf("Now = %d, want 10", k.Now())
	}
}

func TestKernelCoastsToWakeEdge(t *testing.T) {
	k := NewKernel()
	s := newFakeSleeper(100)
	k.Register(s)
	k.Run(250)
	if k.Now() != 250 {
		t.Fatalf("Now = %d, want 250", k.Now())
	}
	// Dense ticks only at the wake edges 0, 100, 200; every other cycle is
	// fast-forwarded (the cycle after each wake via the per-entry skip, the
	// rest via whole-kernel coasting).
	want := []uint64{0, 100, 200}
	if len(s.ticks) != len(want) {
		t.Fatalf("dense ticks at %v, want %v", s.ticks, want)
	}
	for i, w := range want {
		if s.ticks[i] != w {
			t.Fatalf("dense ticks at %v, want %v", s.ticks, want)
		}
	}
	if s.ffwd != 250-3 {
		t.Errorf("fast-forwarded %d cycles, want %d", s.ffwd, 250-3)
	}
}

func TestKernelCoastStopsAtRunBoundary(t *testing.T) {
	k := NewKernel()
	s := newFakeSleeper(1000)
	k.Register(s)
	k.Run(30)
	if k.Now() != 30 {
		t.Errorf("coast overshot the Run boundary: Now = %d, want 30", k.Now())
	}
	if got := uint64(len(s.ticks)) + s.ffwd; got != 30 {
		t.Errorf("ticks+ffwd = %d, want every cycle accounted (30)", got)
	}
}

func TestKernelPlainTickerBlocksCoast(t *testing.T) {
	k := NewKernel()
	s := newFakeSleeper(1000)
	plain := 0
	k.Register(s)
	k.Register(TickFunc(func(uint64) { plain++ }))
	k.Run(50)
	if plain != 50 {
		t.Errorf("plain ticker ran %d times, want 50 (non-Quiescer must tick every cycle)", plain)
	}
	if k.Now() != 50 {
		t.Errorf("Now = %d, want 50", k.Now())
	}
}

func TestRunUntilExactCycleCountsWhileCoasting(t *testing.T) {
	k := NewKernel()
	s := newFakeSleeper(64)
	k.Register(s)
	// Predicate over simulation state: the sleeper has ticked 3 times
	// (cycles 0, 64, 128 — satisfied once the cycle-128 tick ran, checked
	// at now = 129).
	ok := k.RunUntil(func() bool { return len(s.ticks) >= 3 }, 10_000)
	if !ok {
		t.Fatal("RunUntil did not reach the predicate")
	}
	if k.Now() != 129 {
		t.Errorf("Now = %d, want 129 (coast must stop at each wake edge for the predicate)", k.Now())
	}

	// A predicate that never holds must still consume exactly the limit.
	k2 := NewKernel()
	k2.Register(newFakeSleeper(64))
	if k2.RunUntil(func() bool { return false }, 777) {
		t.Error("RunUntil reported success on a false predicate")
	}
	if k2.Now() != 777 {
		t.Errorf("Now = %d, want exactly the 777-cycle limit", k2.Now())
	}
}

func TestReserveKeepsRegistrationOrder(t *testing.T) {
	k := NewKernel()
	var log []int
	k.Register(TickFunc(func(uint64) { log = append(log, 0) }))
	k.Reserve(16)
	k.Register(TickFunc(func(uint64) { log = append(log, 1) }))
	k.Run(1)
	if len(log) != 2 || log[0] != 0 || log[1] != 1 {
		t.Errorf("tick order %v, want [0 1]", log)
	}
}
