package link

import (
	"math/rand"
	"testing"

	"afcnet/internal/flit"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestPipeDelaysByLatency(t *testing.T) {
	for _, lat := range []int{1, 2, 3, 7} {
		p := NewPipe[int](lat)
		p.Send(10, 42)
		for c := uint64(10); c < 10+uint64(lat); c++ {
			if v, ok := p.Recv(c); ok {
				t.Fatalf("lat=%d: value %d visible at cycle %d (sent at 10)", lat, v, c)
			}
		}
		v, ok := p.Recv(10 + uint64(lat))
		if !ok || v != 42 {
			t.Fatalf("lat=%d: Recv at arrival = (%d,%v), want (42,true)", lat, v, ok)
		}
	}
}

func TestPipeRecvConsumes(t *testing.T) {
	p := NewPipe[int](2)
	p.Send(0, 1)
	if _, ok := p.Recv(2); !ok {
		t.Fatal("no value at arrival")
	}
	if _, ok := p.Recv(2); ok {
		t.Fatal("value not consumed by Recv")
	}
}

func TestPipePeekDoesNotConsume(t *testing.T) {
	p := NewPipe[int](1)
	p.Send(5, 9)
	if v, ok := p.Peek(6); !ok || v != 9 {
		t.Fatalf("Peek = (%d,%v)", v, ok)
	}
	if v, ok := p.Recv(6); !ok || v != 9 {
		t.Fatalf("Recv after Peek = (%d,%v)", v, ok)
	}
}

func TestPipeBackToBackFullBandwidth(t *testing.T) {
	p := NewPipe[uint64](3)
	// one send per cycle for 100 cycles, one receive per cycle 3 later
	for c := uint64(0); c < 103; c++ {
		if c < 100 {
			if !p.CanSend(c) {
				t.Fatalf("cannot send at cycle %d", c)
			}
			p.Send(c, c)
		}
		if c >= 3 {
			v, ok := p.Recv(c)
			if !ok || v != c-3 {
				t.Fatalf("Recv(%d) = (%d,%v), want (%d,true)", c, v, ok, c-3)
			}
		}
	}
}

func TestPipeDoubleSendPanics(t *testing.T) {
	p := NewPipe[int](2)
	p.Send(4, 1)
	if p.CanSend(4) {
		t.Error("CanSend true after send in same cycle")
	}
	defer func() {
		if recover() == nil {
			t.Error("double send did not panic")
		}
	}()
	p.Send(4, 2)
}

func TestPipeMissedValueIsLost(t *testing.T) {
	p := NewPipe[int](1)
	p.Send(0, 7)
	// Not received at cycle 1; by cycle 2 the slot may be reused and the
	// stale value must not appear at later cycles of the ring.
	if _, ok := p.Recv(2); ok {
		t.Error("stale value visible at wrong cycle")
	}
}

func TestPipeInFlight(t *testing.T) {
	p := NewPipe[int](4)
	if p.InFlight() != 0 {
		t.Fatal("fresh pipe not empty")
	}
	p.Send(0, 1)
	p.Send(1, 2)
	if p.InFlight() != 2 {
		t.Fatalf("InFlight = %d, want 2", p.InFlight())
	}
	p.Recv(4)
	if p.InFlight() != 1 {
		t.Fatalf("InFlight after one Recv = %d, want 1", p.InFlight())
	}
}

func TestZeroLatencyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewPipe(0) did not panic")
		}
	}()
	NewPipe[int](0)
}

func TestTypedAliases(t *testing.T) {
	d := NewData(2)
	f := &flit.Flit{PacketID: 3}
	d.Send(0, f)
	got, ok := d.Recv(2)
	if !ok || got.PacketID != 3 {
		t.Fatalf("data link round trip failed: %v %v", got, ok)
	}

	c := NewCredit(1)
	c.Send(0, Credit{VC: 5, VN: flit.VNData})
	cr, ok := c.Recv(1)
	if !ok || cr.VC != 5 || cr.VN != flit.VNData {
		t.Fatalf("credit link round trip failed: %+v %v", cr, ok)
	}

	cl := NewCtrl(1)
	cl.Send(0, CtrlStartCredits)
	msg, ok := cl.Recv(1)
	if !ok || msg != CtrlStartCredits {
		t.Fatalf("ctrl link round trip failed: %v %v", msg, ok)
	}
}

func TestCtrlString(t *testing.T) {
	if CtrlStartCredits.String() != "start-credits" || CtrlStopCredits.String() != "stop-credits" {
		t.Error("Ctrl.String mismatch")
	}
}

// TestPipeModelBased drives a Pipe with random send/receive schedules and
// checks it behaves exactly like a delay line: every value emerges exactly
// latency cycles after its send, in order, with none lost (given a
// receiver that polls every cycle).
func TestPipeModelBased(t *testing.T) {
	type expect struct {
		at uint64
		v  int
	}
	for _, lat := range []int{1, 2, 5} {
		p := NewPipe[int](lat)
		rng := newRand(77 + int64(lat))
		var pending []expect
		next := 1
		for now := uint64(0); now < 5000; now++ {
			if rng.Float64() < 0.6 && p.CanSend(now) {
				p.Send(now, next)
				pending = append(pending, expect{at: now + uint64(lat), v: next})
				next++
			}
			got, ok := p.Recv(now)
			wantOK := len(pending) > 0 && pending[0].at == now
			if ok != wantOK {
				t.Fatalf("lat=%d cycle=%d: recv ok=%v, model says %v", lat, now, ok, wantOK)
			}
			if ok {
				if got != pending[0].v {
					t.Fatalf("lat=%d cycle=%d: got %d, model says %d", lat, now, got, pending[0].v)
				}
				pending = pending[1:]
			}
		}
	}
}
