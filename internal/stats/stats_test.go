package stats

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestIntensityMonitorWindowAverage(t *testing.T) {
	m := NewIntensityMonitor(0.5) // strong response for testability
	// Constant load l: EWMA converges to l.
	for i := 0; i < 200; i++ {
		m.Observe(4)
	}
	if got := m.Value(); math.Abs(got-4) > 1e-9 {
		t.Errorf("EWMA under constant load = %g, want 4", got)
	}
}

func TestIntensityMonitorSmoothsBursts(t *testing.T) {
	// The paper smooths with a 4-cycle window and EWMA 0.99 precisely so
	// a one-cycle burst cannot trigger a mode switch.
	m := NewIntensityMonitor(0.99)
	for i := 0; i < 100; i++ {
		m.Observe(0)
	}
	m.Observe(5) // burst
	if got := m.Value(); got > 0.1 {
		t.Errorf("one-cycle burst moved EWMA to %g; too reactive", got)
	}
}

func TestIntensityMonitorTracksStepLoad(t *testing.T) {
	m := NewIntensityMonitor(0.99)
	for i := 0; i < 2000; i++ {
		m.Observe(3)
	}
	if got := m.Value(); math.Abs(got-3) > 0.01 {
		t.Errorf("EWMA after 2000 cycles of load 3 = %g", got)
	}
	m.Reset()
	if m.Value() != 0 {
		t.Error("Reset did not zero the monitor")
	}
}

func TestIntensityMonitorPanicsOnBadWeight(t *testing.T) {
	for _, w := range []float64{0, 1, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("weight %g did not panic", w)
				}
			}()
			NewIntensityMonitor(w)
		}()
	}
}

// TestSummaryZeroValueAndReset: a zero Summary is empty, and after Reset
// the first sample sets the minimum rather than comparing against the
// previous run's.
func TestSummaryZeroValueAndReset(t *testing.T) {
	var s Summary
	if s.Count() != 0 || s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Fatalf("zero summary not empty: %+v", s)
	}
	for _, v := range []uint64{5, 3, 9} {
		s.Add(v)
	}
	if s.Count() != 3 || s.Min() != 3 || s.Max() != 9 || s.Mean() != 17.0/3 {
		t.Errorf("count/min/max/mean = %d/%d/%d/%g", s.Count(), s.Min(), s.Max(), s.Mean())
	}
	s.Reset()
	s.Add(7)
	if s.Count() != 1 || s.Min() != 7 || s.Max() != 7 {
		t.Errorf("after reset: count/min/max = %d/%d/%d", s.Count(), s.Min(), s.Max())
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(100)
	for i := uint64(1); i <= 10; i++ {
		h.Add(i)
	}
	if h.Count() != 10 || h.Min() != 1 || h.Max() != 10 {
		t.Errorf("count/min/max = %d/%d/%d", h.Count(), h.Min(), h.Max())
	}
	if got := h.Mean(); math.Abs(got-5.5) > 1e-9 {
		t.Errorf("mean = %g", got)
	}
	if p := h.Percentile(50); p < 5 || p > 6 {
		t.Errorf("p50 = %d", p)
	}
	if p := h.Percentile(100); p != 10 {
		t.Errorf("p100 = %d", p)
	}
}

func TestHistogramEmptyIsSafe(t *testing.T) {
	h := NewHistogram(10)
	if h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 || h.Percentile(99) != 0 {
		t.Error("empty histogram should return zeros")
	}
}

func TestHistogramThinningKeepsExactAggregates(t *testing.T) {
	h := NewHistogram(64)
	var sum uint64
	for i := uint64(0); i < 10_000; i++ {
		h.Add(i)
		sum += i
	}
	if h.Count() != 10_000 {
		t.Errorf("count = %d", h.Count())
	}
	if got := h.Mean(); math.Abs(got-float64(sum)/10_000) > 1e-9 {
		t.Errorf("mean drifted after thinning: %g", got)
	}
	// Percentiles stay approximately right after thinning.
	if p := h.Percentile(50); p < 3_000 || p > 7_000 {
		t.Errorf("p50 after thinning = %d", p)
	}
}

// TestHistogramThinBoundaryStride: the sample that triggers a thin must
// obey the doubled stride like every other sample. Historically it was
// appended unconditionally, so thin-boundary samples were systematically
// over-represented in the retained set. With capacity 4 and sequential
// input the whole retention schedule is small enough to pin exactly.
func TestHistogramThinBoundaryStride(t *testing.T) {
	h := NewHistogram(4)
	for i := uint64(1); i <= 100; i++ {
		h.Add(i)
	}
	// Thins at seen = 5, 10, 20, 40, 80; each doubles the stride, and the
	// triggers (5, 10, 20, 40, 80) all fall off the doubled grid.
	if h.stride != 32 {
		t.Errorf("stride = %d, want 32", h.stride)
	}
	if want := []uint64{1, 48, 96}; !reflect.DeepEqual(h.values, want) {
		t.Errorf("retained samples = %v, want %v", h.values, want)
	}
	if h.Count() != 100 || h.Min() != 1 || h.Max() != 100 {
		t.Errorf("exact aggregates drifted: count/min/max = %d/%d/%d",
			h.Count(), h.Min(), h.Max())
	}
}

// TestHistogramThinnedPercentilesUniform: after heavy thinning, the
// retained set still represents a uniform input stream — every decile
// lands near its true value.
func TestHistogramThinnedPercentilesUniform(t *testing.T) {
	h := NewHistogram(64)
	const n = 100_000
	for i := uint64(0); i < n; i++ {
		h.Add(i)
	}
	for _, p := range []float64{10, 25, 50, 75, 90} {
		got := float64(h.Percentile(p))
		want := p / 100 * n
		if math.Abs(got-want) > 0.12*n {
			t.Errorf("p%.0f after thinning = %g, want ~%g", p, got, want)
		}
	}
}

// TestHistogramPercentileCacheInvalidation: Percentile caches its sorted
// slice; the cache must be rebuilt after further Adds (including thins).
func TestHistogramPercentileCacheInvalidation(t *testing.T) {
	h := NewHistogram(1000)
	for i := uint64(1); i <= 100; i++ {
		h.Add(i)
	}
	if p := h.Percentile(50); p != 50 {
		t.Errorf("p50 of 1..100 = %d, want 50", p)
	}
	for i := uint64(1000); i < 1100; i++ {
		h.Add(i)
	}
	if p := h.Percentile(50); p != 100 {
		t.Errorf("p50 after second batch = %d, want 100", p)
	}
	if p := h.Percentile(100); p != 1099 {
		t.Errorf("p100 after second batch = %d, want 1099", p)
	}
}

func TestRunningMatchesDirectComputation(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 2 {
			return true
		}
		var r Running
		mean := 0.0
		for _, x := range raw {
			// bound magnitudes to keep float comparisons stable
			x = math.Mod(x, 1000)
			if math.IsNaN(x) {
				return true
			}
			r.Add(x)
			mean += x
		}
		mean /= float64(len(raw))
		if math.Abs(r.Mean()-mean) > 1e-6*(1+math.Abs(mean)) {
			return false
		}
		variance := 0.0
		i := 0
		for _, x := range raw {
			x = math.Mod(x, 1000)
			variance += (x - mean) * (x - mean)
			i++
		}
		variance /= float64(len(raw) - 1)
		return math.Abs(r.StdDev()-math.Sqrt(variance)) < 1e-6*(1+math.Sqrt(variance))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(4))}); err != nil {
		t.Error(err)
	}
}

func TestRunningFewSamples(t *testing.T) {
	var r Running
	if r.StdDev() != 0 || r.Mean() != 0 || r.N() != 0 {
		t.Error("zero-value Running should be all zeros")
	}
	r.Add(7)
	if r.Mean() != 7 || r.StdDev() != 0 || r.N() != 1 {
		t.Error("single-sample Running wrong")
	}
}

func TestGeoMean(t *testing.T) {
	got := GeoMean([]float64{1, 4, 16})
	if math.Abs(got-4) > 1e-9 {
		t.Errorf("GeoMean = %g, want 4", got)
	}
	if GeoMean(nil) != 0 {
		t.Error("GeoMean(nil) != 0")
	}
	defer func() {
		if recover() == nil {
			t.Error("GeoMean with non-positive value did not panic")
		}
	}()
	GeoMean([]float64{1, 0})
}

// TestHistogramPercentileDomain: p outside (0, 100] must panic instead
// of silently clamping (p=0 would quietly return the minimum, p>100 the
// maximum, masking a caller bug). Valid edge queries still work on a
// thinned histogram.
func TestHistogramPercentileDomain(t *testing.T) {
	h := NewHistogram(64)
	for i := uint64(1); i <= 10_000; i++ {
		h.Add(i)
	}
	for _, p := range []float64{0, -1, 100.001, 150, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Percentile(%v) did not panic", p)
				}
			}()
			h.Percentile(p)
		}()
	}
	// The domain edges are legal, including on a heavily thinned
	// histogram (stride > 1 by now).
	if h.Stride() <= 1 {
		t.Fatalf("stride = %d, expected thinning to have kicked in", h.Stride())
	}
	if p := h.Percentile(100); p != h.Max() && p < 9_000 {
		t.Errorf("p100 = %d, want near max %d", p, h.Max())
	}
	if p := h.Percentile(0.1); p > 1_000 {
		t.Errorf("p0.1 = %d, want near min", p)
	}
	if p := h.Percentile(99.9); p < 9_000 {
		t.Errorf("p99.9 = %d, want in the top tail", p)
	}
}

// TestHistogramEachRetainedMerge: EachRetained+Stride reproduce a
// histogram's distribution in another one — the scenario engine's
// per-node phase merge. Stride-weighted re-adding must keep percentiles
// close to the source's.
func TestHistogramEachRetainedMerge(t *testing.T) {
	src := NewHistogram(64)
	const n = 50_000
	for i := uint64(0); i < n; i++ {
		src.Add(i)
	}
	dst := NewHistogram(4096)
	retained := 0
	src.EachRetained(func(v uint64) {
		retained++
		for i := 0; i < src.Stride(); i++ {
			dst.Add(v)
		}
	})
	if retained == 0 || retained > 64 {
		t.Fatalf("retained = %d, want within capacity", retained)
	}
	if got, want := dst.Count(), uint64(retained*src.Stride()); got != want {
		t.Errorf("merged count = %d, want %d", got, want)
	}
	for _, p := range []float64{25, 50, 75, 99} {
		got := float64(dst.Percentile(p))
		want := p / 100 * n
		if math.Abs(got-want) > 0.15*n {
			t.Errorf("merged p%.0f = %g, want ~%g", p, got, want)
		}
	}
}
