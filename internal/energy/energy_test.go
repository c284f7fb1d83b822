package energy

import (
	"math"
	"testing"
)

func testParams() Params {
	p := DefaultParams()
	return p
}

func TestWidthScaling(t *testing.T) {
	p := testParams()
	narrow := NewMeter(p, p.RefWidthBits, 64, 5, true)
	wide := NewMeter(p, 2*p.RefWidthBits, 64, 5, true)
	narrow.Xbar()
	wide.Xbar()
	narrow.LinkHop()
	wide.LinkHop()
	n, w := narrow.Breakdown(), wide.Breakdown()
	if math.Abs(w.Xbar-2*n.Xbar) > 1e-12 || math.Abs(w.Link-2*n.Link) > 1e-12 {
		t.Errorf("dynamic energy not linear in width: %+v vs %+v", n, w)
	}
}

func TestBufferAccessScalesWithSqrtCapacity(t *testing.T) {
	p := testParams()
	big := NewMeter(p, 41, 64, 5, true)
	small := NewMeter(p, 41, 16, 5, true)
	big.BufWrite()
	small.BufWrite()
	ratio := big.Breakdown().BufferDynamic / small.Breakdown().BufferDynamic
	if math.Abs(ratio-2) > 1e-9 { // sqrt(64/16) = 2
		t.Errorf("buffer access ratio = %g, want 2", ratio)
	}
}

func TestIdealBypassElidesBufferDynamic(t *testing.T) {
	p := testParams()
	m := NewMeter(p, 41, 64, 5, false)
	m.BufWrite()
	m.BufRead()
	if got := m.Breakdown().BufferDynamic; got != 0 {
		t.Errorf("ideal bypass accrued %g buffer dynamic energy", got)
	}
	m.StaticTick()
	if m.Breakdown().BufferStatic <= 0 {
		t.Error("ideal bypass must still leak buffer static power")
	}
}

func TestGatingEffectiveness(t *testing.T) {
	p := testParams()
	on := NewMeter(p, 49, 32, 5, true)
	off := NewMeter(p, 49, 32, 5, true)
	off.SetGated(true)
	on.StaticTick()
	off.StaticTick()
	wantRatio := 1 - p.GatingEffectiveness // 0.1
	got := off.Breakdown().BufferStatic / on.Breakdown().BufferStatic
	if math.Abs(got-wantRatio) > 1e-9 {
		t.Errorf("gated leakage ratio = %g, want %g", got, wantRatio)
	}
	if off.Breakdown().RouterStatic != on.Breakdown().RouterStatic {
		t.Error("gating must not affect non-buffer router leakage")
	}
	if !off.Gated() || on.Gated() {
		t.Error("Gated() state wrong")
	}
}

func TestBufferlessMeterHasNoBufferEnergy(t *testing.T) {
	p := testParams()
	m := NewMeter(p, 45, 0, 5, true)
	m.BufWrite() // should still charge nothing meaningful? writes scale by slots... it charges per event
	m.StaticTick()
	b := m.Breakdown()
	if b.BufferStatic != 0 {
		t.Errorf("bufferless meter leaked buffer static energy: %g", b.BufferStatic)
	}
}

func TestBreakdownArithmetic(t *testing.T) {
	b := Breakdown{BufferDynamic: 1, BufferStatic: 2, Link: 3, Xbar: 4, Arb: 5, Latch: 6, Credit: 7, RouterStatic: 8}
	if b.Buffer() != 3 {
		t.Errorf("Buffer = %g", b.Buffer())
	}
	if b.Rest() != 4+5+6+7+8 {
		t.Errorf("Rest = %g", b.Rest())
	}
	if b.Total() != 36 {
		t.Errorf("Total = %g", b.Total())
	}
	var acc Breakdown
	acc.Add(b)
	acc.Add(b)
	if acc.Total() != 72 {
		t.Errorf("Add: total = %g", acc.Total())
	}
}

func TestResetClearsAccumulation(t *testing.T) {
	m := NewMeter(testParams(), 41, 64, 5, true)
	m.BufWrite()
	m.LinkHop()
	m.StaticTick()
	m.Reset()
	if m.Breakdown().Total() != 0 {
		t.Error("Reset left residual energy")
	}
}

// TestDefaultParamsAnchors sanity-checks the calibration invariants the
// experiments rely on: one flit-hop's buffer dynamic energy is less than
// its non-buffer dynamic energy (so buffer share stays in the paper's
// 30-40% band at high load), and per-cycle leakage dominates per-hop
// dynamic energy at very low utilization (static-dominated low load).
func TestDefaultParamsAnchors(t *testing.T) {
	p := DefaultParams()
	bufPerHop := p.BufWrite + p.BufRead
	restPerHop := p.LinkHop + p.Xbar + p.SwArb
	if bufPerHop >= restPerHop {
		t.Errorf("buffer dynamic per hop (%g) should be below non-buffer (%g)", bufPerHop, restPerHop)
	}
	leakPerCycle := p.BufLeakPerBitPerCycle*64*5*41 + p.RouterLeakPerCycle
	if leakPerCycle <= bufPerHop+restPerHop {
		t.Errorf("per-cycle leakage (%g) should dominate one flit-hop's dynamic energy (%g) for static-dominated low load",
			leakPerCycle, bufPerHop+restPerHop)
	}
}
