// Package stats provides the measurement utilities used across the
// simulator: the paper's smoothed traffic-intensity monitor (a 4-cycle
// window average further smoothed by an exponentially weighted moving
// average), latency histograms, and across-run aggregation (the paper's
// variance bars come from repeated runs).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// IntensityMonitor implements AFC's local traffic-intensity metric
// (Section III-B): the number of network flits traversing the router
// averaged over the previous 4 cycles, smoothed with an EWMA:
//
//	m_new = w*m_old + (1-w)*l
//
// with w = 0.99 in the paper.
type IntensityMonitor struct {
	weight float64
	window [4]int
	// sum is the running total of the window entries, maintained
	// incrementally (integer addition is exact, so it always equals the
	// sum a scan of the window would produce).
	sum    int
	idx    int
	filled int
	ewma   float64
}

// NewIntensityMonitor returns a monitor with EWMA weight w (the paper uses
// 0.99). It panics if w is outside (0, 1).
func NewIntensityMonitor(w float64) *IntensityMonitor {
	m := &IntensityMonitor{}
	m.Init(w)
	return m
}

// Init (re)initializes a monitor in place with the given EWMA weight,
// for monitors embedded by value in slab-resident router state. Panics
// like NewIntensityMonitor on an out-of-range weight.
func (m *IntensityMonitor) Init(w float64) {
	if w <= 0 || w >= 1 {
		panic(fmt.Sprintf("stats: EWMA weight must be in (0,1), got %g", w))
	}
	*m = IntensityMonitor{weight: w}
}

// Observe records the number of flits that traversed the router this cycle
// and updates the smoothed intensity.
func (m *IntensityMonitor) Observe(flits int) {
	m.sum += flits - m.window[m.idx]
	m.window[m.idx] = flits
	m.idx = (m.idx + 1) % len(m.window)
	if m.filled == len(m.window) {
		// Multiplying by the exact reciprocal of a power of two is
		// bit-identical to the division the reference computed.
		l := float64(m.sum) * 0.25
		m.ewma = m.weight*m.ewma + (1-m.weight)*l
		return
	}
	m.filled++
	l := float64(m.sum) / float64(m.filled)
	m.ewma = m.weight*m.ewma + (1-m.weight)*l
}

// ObserveIdle records k consecutive zero-flit cycles, bit-for-bit
// identical to k Observe(0) calls (a literal replay of the window
// rotation and EWMA update, so float rounding matches the dense
// reference kernel exactly). Used by the active-set kernel to
// fast-forward skipped idle cycles. Once the window is clear and full,
// each Observe(0) reduces to ewma = w*ewma + (1-w)*0, and adding a
// positive zero is a float identity — the loop below replays exactly
// that multiply chain without the window bookkeeping.
func (m *IntensityMonitor) ObserveIdle(k uint64) {
	if m.sum == 0 && m.filled == len(m.window) && m.window == [4]int{} {
		for ; k > 0; k-- {
			m.ewma = m.weight * m.ewma
		}
		return
	}
	for ; k > 0; k-- {
		m.Observe(0)
	}
}

// WindowClear reports whether every entry of the 4-cycle window is zero.
// Once true, further Observe(0) calls can only decay the EWMA (the
// window average is 0, so the EWMA moves monotonically toward 0) — the
// condition AFC's quiescence check needs to rule out a threshold
// crossing during skipped idle cycles.
func (m *IntensityMonitor) WindowClear() bool { return m.window == [4]int{} }

// Value returns the current smoothed traffic intensity in flits/cycle.
func (m *IntensityMonitor) Value() float64 { return m.ewma }

// Reset clears the monitor back to zero intensity.
func (m *IntensityMonitor) Reset() {
	*m = IntensityMonitor{weight: m.weight}
}

// Summary keeps the exact count, sum, minimum and maximum of integer
// samples and no samples themselves. The zero value is empty and ready to
// use.
type Summary struct {
	count uint64
	sum   uint64
	min   uint64
	max   uint64
}

// Add records a sample.
func (s *Summary) Add(v uint64) {
	if s.count == 0 || v < s.min {
		s.min = v
	}
	if v > s.max {
		s.max = v
	}
	s.count++
	s.sum += v
}

// Reset empties the summary.
func (s *Summary) Reset() { *s = Summary{} }

// Count returns the number of samples.
func (s *Summary) Count() uint64 { return s.count }

// Mean returns the mean sample value, or 0 with no samples.
func (s *Summary) Mean() float64 {
	if s.count == 0 {
		return 0
	}
	return float64(s.sum) / float64(s.count)
}

// Min returns the smallest sample, or 0 with no samples.
func (s *Summary) Min() uint64 { return s.min }

// Max returns the largest sample, or 0 with no samples.
func (s *Summary) Max() uint64 { return s.max }

// Histogram is a Summary that also retains samples, systematically
// thinned once full, for percentile queries.
type Histogram struct {
	Summary
	values []uint64 // retained samples for percentile queries
	sorted []uint64 // cached sort of values; valid while !dirty
	dirty  bool     // values changed since sorted was built
	cap    int
	stride int
	seen   int
}

// NewHistogram returns a histogram that retains up to capacity samples
// (systematically thinned once full) for percentile queries while keeping
// exact count/sum/min/max.
func NewHistogram(capacity int) *Histogram {
	if capacity <= 0 {
		capacity = 4096
	}
	// Preallocate the full retention buffer: Add's append would otherwise
	// grow it doubling-by-doubling across the first ~capacity samples,
	// which on large meshes spreads construction cost over the measured
	// steady state (the kernel's zero-allocation contract).
	return &Histogram{cap: capacity, stride: 1, values: make([]uint64, 0, capacity)}
}

// Reset empties the histogram while keeping the retained-sample backing
// arrays, so a reused histogram behaves bit-for-bit like a fresh
// NewHistogram of the same capacity without reallocating.
func (h *Histogram) Reset() {
	h.Summary.Reset()
	h.values = h.values[:0]
	h.sorted = h.sorted[:0]
	h.dirty = false
	h.stride = 1
	h.seen = 0
}

// Add records a sample.
func (h *Histogram) Add(v uint64) {
	h.Summary.Add(v)
	h.seen++
	if h.seen%h.stride != 0 {
		return
	}
	if len(h.values) >= h.cap {
		// Thin: keep every other retained sample and double the
		// stride so memory stays bounded on long runs.
		kept := h.values[:0]
		for i := 0; i < len(h.values); i += 2 {
			kept = append(kept, h.values[i])
		}
		h.values = kept
		h.stride *= 2
		h.dirty = true
		if h.seen%h.stride != 0 {
			// The triggering sample is off the doubled stride's grid;
			// retaining it anyway would over-represent thin boundaries.
			return
		}
	}
	h.values = append(h.values, v)
	h.dirty = true
}

// Percentile returns the p-th percentile (0 < p <= 100) of the retained
// samples, or 0 with no samples. It panics when p lies outside (0, 100]:
// the clamped index arithmetic below would otherwise silently map p=0 to
// the minimum and p>100 to the maximum, masking a caller bug.
func (h *Histogram) Percentile(p float64) uint64 {
	if p <= 0 || p > 100 || math.IsNaN(p) {
		panic(fmt.Sprintf("stats: percentile %v outside (0, 100]", p))
	}
	if len(h.values) == 0 {
		return 0
	}
	if h.dirty || len(h.sorted) != len(h.values) {
		h.sorted = append(h.sorted[:0], h.values...)
		sort.Slice(h.sorted, func(i, j int) bool { return h.sorted[i] < h.sorted[j] })
		h.dirty = false
	}
	idx := int(math.Ceil(p/100*float64(len(h.sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(h.sorted) {
		idx = len(h.sorted) - 1
	}
	return h.sorted[idx]
}

// EachRetained calls fn for every retained sample in insertion order.
// Together with Stride it lets a caller merge several histograms into
// one (the scenario engine aggregates per-node phase histograms this
// way): Add each retained sample Stride times to preserve its weight.
func (h *Histogram) EachRetained(fn func(v uint64)) {
	for _, v := range h.values {
		fn(v)
	}
}

// Stride returns the current thinning stride: each retained sample
// stands for Stride recorded samples.
func (h *Histogram) Stride() int { return h.stride }

// Running accumulates mean and standard deviation incrementally
// (Welford's algorithm). It aggregates metrics across repeated runs with
// different seeds, mirroring the paper's variance bars.
type Running struct {
	n    int
	mean float64
	m2   float64
}

// Add records a sample.
func (r *Running) Add(x float64) {
	r.n++
	d := x - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (x - r.mean)
}

// N returns the number of samples.
func (r *Running) N() int { return r.n }

// Mean returns the sample mean.
func (r *Running) Mean() float64 { return r.mean }

// StdDev returns the sample standard deviation (0 for fewer than two
// samples).
func (r *Running) StdDev() float64 {
	if r.n < 2 {
		return 0
	}
	return math.Sqrt(r.m2 / float64(r.n-1))
}

// GeoMean returns the geometric mean of xs; it panics on non-positive
// inputs because normalized performance/energy ratios are always positive.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			panic(fmt.Sprintf("stats: GeoMean requires positive values, got %g", x))
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}
