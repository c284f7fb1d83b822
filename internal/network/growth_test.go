package network

import (
	"runtime"
	"testing"

	"afcnet/internal/config"
	"afcnet/internal/topology"
)

// TestNewBytesGrowLinearly is the memory guard on network construction:
// for every kind, the bytes New allocates at 32×32 must stay within 4.4×
// those at 16×16. Per-node state quadruples with the node count; any
// state kept per (source, destination) pair, such as a route table,
// grows 16× and pushes the ratio past the bound. It measures the
// process's cumulative allocation around New, so it must not run in
// parallel with other tests.
func TestNewBytesGrowLinearly(t *testing.T) {
	built := func(kind Kind, side int) uint64 {
		cfg := Config{System: config.DefaultWithMesh(topology.NewMesh(side, side)), Kind: kind, Seed: 1, MeterEnergy: true}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		n := New(cfg)
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(n)
		return after.TotalAlloc - before.TotalAlloc
	}
	for _, kind := range allKinds {
		t.Run(kind.String(), func(t *testing.T) {
			small, large := built(kind, 16), built(kind, 32)
			ratio := float64(large) / float64(small)
			t.Logf("New allocates %d B at 16x16, %d B at 32x32: %.2fx", small, large, ratio)
			if ratio > 4.4 {
				t.Errorf("New allocates %.2fx as much at 32x32 as at 16x16 (%d B against %d B), want at most 4.4x",
					ratio, large, small)
			}
		})
	}
}
