// Package energy implements the event-based network energy model standing
// in for Orion (Section IV of the paper).
//
// Dynamic energy is charged per micro-architectural event (buffer write,
// buffer read, crossbar traversal, arbitration, pipeline-latch write,
// credit signaling, link-stage traversal). Static (leakage) energy accrues
// every cycle in proportion to the powered buffer bits and the rest of the
// router, with 90%-effective power gating when an AFC router parks its
// buffers in backpressureless mode.
//
// All dynamic event energies scale linearly with the flit width of the
// flow-control mechanism (41/45/49 bits; wider AFC flits are the paper's
// key energy overhead) and buffer access energy additionally scales with
// the square root of the per-port buffer capacity (smaller SRAMs have
// cheaper accesses — how lazy VC allocation claws back energy).
//
// The absolute constants are calibrated, not measured: they are chosen so
// the backpressured baseline matches the paper's qualitative anchors
// (buffers ~30-40% of network energy, static power dominant at low load).
// Every comparison in the paper is relative, and relative shapes are what
// this model reproduces.
package energy

import "math"

// Params holds the per-event energies (picojoules at the reference flit
// width and reference buffer size) and leakage powers (picojoules per
// cycle).
type Params struct {
	// RefWidthBits is the flit width all event energies are quoted at.
	RefWidthBits int
	// RefBufSlotsPerPort is the per-port buffer capacity the buffer
	// access energies are quoted at.
	RefBufSlotsPerPort int

	BufWrite  float64 // buffer (SRAM) write, per flit
	BufRead   float64 // buffer (SRAM) read, per flit
	Xbar      float64 // crossbar traversal, per flit
	SwArb     float64 // switch arbitration, per granted request
	VCArb     float64 // VC allocation, per allocation (baseline router only)
	Latch     float64 // pipeline latch write (deflection datapath)
	CreditSig float64 // credit backflow signaling, per credit
	LinkHop   float64 // one inter-router link traversal, per flit (2.5mm)

	// BufLeakPerBitPerCycle is buffer leakage power per buffer bit.
	BufLeakPerBitPerCycle float64
	// RouterLeakPerCycle is leakage of the rest of the router (crossbar,
	// allocators, latches), scaled linearly by flit width.
	RouterLeakPerCycle float64
	// GatingEffectiveness is the fraction of buffer leakage removed by
	// power gating (the paper assumes 90%).
	GatingEffectiveness float64
}

// DefaultParams returns the calibrated 70nm-class parameter set used by
// all experiments. See the package comment for the calibration anchors.
func DefaultParams() Params {
	return Params{
		RefWidthBits:       41,
		RefBufSlotsPerPort: 64,

		BufWrite:  0.90,
		BufRead:   0.84,
		Xbar:      0.95,
		SwArb:     0.12,
		VCArb:     0.10,
		Latch:     0.22,
		CreditSig: 0.05,
		LinkHop:   2.10,

		BufLeakPerBitPerCycle: 0.000142,
		RouterLeakPerCycle:    3.30,
		GatingEffectiveness:   0.90,
	}
}

// Breakdown partitions network energy the way Figure 3 of the paper does:
// buffer energy, link energy, and the rest of the router (crossbar,
// arbiters, latches, credit lines, router leakage).
type Breakdown struct {
	BufferDynamic float64
	BufferStatic  float64
	Link          float64
	Xbar          float64
	Arb           float64
	Latch         float64
	Credit        float64
	RouterStatic  float64
}

// Buffer returns total buffer energy (dynamic + static).
func (b Breakdown) Buffer() float64 { return b.BufferDynamic + b.BufferStatic }

// Rest returns the "rest of router" component of Figure 3 (everything that
// is neither buffer nor link energy).
func (b Breakdown) Rest() float64 { return b.Xbar + b.Arb + b.Latch + b.Credit + b.RouterStatic }

// Total returns total network energy.
func (b Breakdown) Total() float64 {
	return b.Buffer() + b.Link + b.Rest()
}

// Add accumulates o into b.
func (b *Breakdown) Add(o Breakdown) {
	b.BufferDynamic += o.BufferDynamic
	b.BufferStatic += o.BufferStatic
	b.Link += o.Link
	b.Xbar += o.Xbar
	b.Arb += o.Arb
	b.Latch += o.Latch
	b.Credit += o.Credit
	b.RouterStatic += o.RouterStatic
}

// Meter accumulates the energy of one router and its outgoing links.
type Meter struct {
	p Params

	widthScale     float64 // flitWidth / RefWidthBits
	bufAccessScale float64 // sqrt(slotsPerPort / RefBufSlotsPerPort) * widthScale
	bufBits        float64 // total powered buffer bits across all ports

	// dynBufEnabled is false for the "Backpressured ideal-bypass" bound,
	// which elides all buffer dynamic energy (Section V-A).
	dynBufEnabled bool
	gated         bool

	acc Breakdown
}

// NewMeter returns a meter for a router with the given flit width (bits)
// and per-port buffer capacity (flit slots) across ports router ports.
// dynBuf=false models the ideal-bypass energy bound.
func NewMeter(p Params, flitWidthBits, slotsPerPort, ports int, dynBuf bool) *Meter {
	ws := float64(flitWidthBits) / float64(p.RefWidthBits)
	bas := ws
	if slotsPerPort > 0 {
		bas *= math.Sqrt(float64(slotsPerPort) / float64(p.RefBufSlotsPerPort))
	}
	return &Meter{
		p:              p,
		widthScale:     ws,
		bufAccessScale: bas,
		bufBits:        float64(slotsPerPort*ports) * float64(flitWidthBits),
		dynBufEnabled:  dynBuf,
	}
}

// SetGated marks the router's buffers as power-gated (AFC in
// backpressureless mode gates all buffers at whole-physical-port
// granularity) or active.
func (m *Meter) SetGated(gated bool) { m.gated = gated }

// Gated reports whether the buffers are currently power-gated.
func (m *Meter) Gated() bool { return m.gated }

// BufWrite charges one buffer write.
func (m *Meter) BufWrite() {
	if m.dynBufEnabled {
		m.acc.BufferDynamic += m.p.BufWrite * m.bufAccessScale
	}
}

// BufRead charges one buffer read.
func (m *Meter) BufRead() {
	if m.dynBufEnabled {
		m.acc.BufferDynamic += m.p.BufRead * m.bufAccessScale
	}
}

// Xbar charges one crossbar traversal.
func (m *Meter) Xbar() { m.acc.Xbar += m.p.Xbar * m.widthScale }

// SwArb charges one switch-arbitration grant.
func (m *Meter) SwArb() { m.acc.Arb += m.p.SwArb }

// VCArb charges one VC allocation.
func (m *Meter) VCArb() { m.acc.Arb += m.p.VCArb }

// Latch charges one pipeline-latch write (deflection datapath).
func (m *Meter) Latch() { m.acc.Latch += m.p.Latch * m.widthScale }

// Credit charges one credit-backflow event.
func (m *Meter) Credit() { m.acc.Credit += m.p.CreditSig }

// LinkHop charges one inter-router link traversal.
func (m *Meter) LinkHop() { m.acc.Link += m.p.LinkHop * m.widthScale }

// StaticTick accrues one cycle of leakage. Buffer leakage is reduced by
// the gating effectiveness while gated.
func (m *Meter) StaticTick() {
	leak := m.bufBits * m.p.BufLeakPerBitPerCycle
	if m.gated {
		leak *= 1 - m.p.GatingEffectiveness
	}
	m.acc.BufferStatic += leak
	m.acc.RouterStatic += m.p.RouterLeakPerCycle * m.widthScale
}

// StaticTicks accrues k cycles of leakage, bit-for-bit identical to k
// StaticTick calls (a literal loop, not closed-form multiplication, so
// float rounding matches the dense reference kernel exactly). Used by
// the active-set kernel to fast-forward skipped idle cycles.
func (m *Meter) StaticTicks(k uint64) {
	for ; k > 0; k-- {
		m.StaticTick()
	}
}

// Breakdown returns the accumulated energy.
func (m *Meter) Breakdown() Breakdown { return m.acc }

// Reset clears accumulated energy (used to discard warmup).
func (m *Meter) Reset() { m.acc = Breakdown{} }
