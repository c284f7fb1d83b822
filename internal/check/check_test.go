package check_test

import (
	"strings"
	"testing"

	"afcnet/internal/check"
	"afcnet/internal/flit"
	"afcnet/internal/network"
	"afcnet/internal/topology"
	"afcnet/internal/traffic"
)

// kindRate picks an offered load that exercises the kind: AFC kinds run
// hot enough to switch modes both ways, the drop variant stays below its
// early saturation so the NACK/retransmission machinery cycles without
// an unbounded backlog.
func kindRate(k network.Kind) float64 {
	if k == network.BlessDrop {
		return 0.20
	}
	return 0.45
}

// TestAllKindsChecked is the standing CI smoke for the invariant layer:
// every network kind runs a few thousand cycles of open-loop uniform
// traffic with the checker attached, then drains, with zero violations.
func TestAllKindsChecked(t *testing.T) {
	for k := network.Kind(0); k < network.NumKinds; k++ {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			t.Parallel()
			net := network.New(network.Config{Kind: k, Seed: 11, MeterEnergy: true})
			c := check.AttachWith(net, check.Config{})
			gen := traffic.NewGenerator(net, traffic.Config{Rate: kindRate(k)}, net.RandStream)
			net.AddTicker(gen)
			net.Run(4000)
			gen.Stop()
			if !net.RunUntil(net.Drained, 300_000) {
				t.Errorf("network did not drain after the generator stopped")
			}
			if err := c.Err(); err != nil {
				for _, v := range c.Violations() {
					t.Log(v)
				}
				t.Fatalf("invariant violations: %v", err)
			}
			if c.CheckedCycles() < 4000 {
				t.Fatalf("checker observed only %d cycles", c.CheckedCycles())
			}
		})
	}
}

// TestCheckerDetectsConjuredFlit verifies the oracle itself: delivering
// a flit that was never injected must trip flit conservation.
func TestCheckerDetectsConjuredFlit(t *testing.T) {
	net := network.New(network.Config{Kind: network.Bless, Seed: 1})
	c := check.AttachWith(net, check.Config{})
	p := flit.Packet{ID: 1, Src: 1, Dst: 0, VN: flit.VNReq, Len: 1, CreatedAt: 0}
	net.NI(0).Deliver(0, p.Flits()[0])
	net.Step()
	err := c.Err()
	if err == nil {
		t.Fatal("checker accepted a flit that was never injected")
	}
	if !strings.Contains(err.Error(), "conservation") {
		t.Fatalf("expected a conservation violation, got: %v", err)
	}
}

// TestCheckerFailFastPanics verifies the fail-fast mode used by the
// experiment harnesses: the first violation must panic so the worker
// pool surfaces it as the cell's error.
func TestCheckerFailFastPanics(t *testing.T) {
	net := network.New(network.Config{Kind: network.Bless, Seed: 1})
	check.Attach(net)
	p := flit.Packet{ID: 1, Src: 1, Dst: 0, VN: flit.VNReq, Len: 1, CreatedAt: 0}
	net.NI(0).Deliver(0, p.Flits()[0])
	defer func() {
		if recover() == nil {
			t.Fatal("fail-fast checker did not panic on a violation")
		}
	}()
	net.Step()
}

// TestCheckerCatchesPrematureRecycle verifies the arena-lifecycle
// oracle: recycling a flit that is still in flight (the double-recycle /
// use-after-free failure mode of the pooling layer) must be flagged the
// next time the checker walks the network. The generator is stopped
// before the corruption so the freed slot cannot be reissued within the
// observed cycle — the checker then sees an in-network flit whose handle
// the arena says was already returned.
func TestCheckerCatchesPrematureRecycle(t *testing.T) {
	net := network.New(network.Config{Kind: network.Bless, Seed: 3})
	c := check.AttachWith(net, check.Config{})
	gen := traffic.NewGenerator(net, traffic.Config{Rate: 0.45}, net.RandStream)
	net.AddTicker(gen)
	net.Run(200)
	gen.Stop()
	var victim *flit.Flit
	for node := 0; node < net.Nodes() && victim == nil; node++ {
		net.Router(topology.NodeID(node)).(interface {
			ForEachFlit(func(*flit.Flit))
		}).ForEachFlit(func(f *flit.Flit) {
			if victim == nil {
				victim = f
			}
		})
	}
	if victim == nil {
		t.Fatal("no flit in flight after 200 cycles at rate 0.45")
	}
	flit.Recycle(victim) // corrupt: the network still holds this flit
	net.Step()
	err := c.Err()
	if err == nil {
		t.Fatal("checker accepted an in-flight flit that was recycled under it")
	}
	if !strings.Contains(err.Error(), "arena lifecycle") {
		t.Fatalf("expected an arena lifecycle violation, got: %v", err)
	}
}

// TestCheckerDetectsDetachedTally verifies the inbox reconciliation: on
// a backpressured network, where credits flow back every cycle a flit
// moves, a credit pipe that stops feeding its receiver's tally mid-run
// must be reported at that node. The pipe is detached while it carries
// a credit, so the stale tally stays above zero and the router keeps
// polling its credit pipes: the run itself goes on unharmed.
func TestCheckerDetectsDetachedTally(t *testing.T) {
	net := network.New(network.Config{Kind: network.Backpressured, Seed: 3})
	c := check.AttachWith(net, check.Config{})
	gen := traffic.NewGenerator(net, traffic.Config{Rate: 0.3}, net.RandStream)
	net.AddTicker(gen)
	net.Run(500)
	if err := c.Err(); err != nil {
		t.Fatalf("violations before the tally was detached: %v", err)
	}
	const node = 4 // the center of the default 3x3 mesh
	pipe := net.Wires(node).Ports[topology.East].CreditIn
	for i := 0; pipe.InFlight() == 0; i++ {
		if i == 1000 {
			t.Fatal("no credit in flight toward node 4 from the east in 1000 cycles")
		}
		net.Step()
	}
	pipe.SetTally(nil)
	net.Run(500)
	err := c.Err()
	if err == nil {
		t.Fatal("checker accepted a credit pipe that stopped feeding its node's tally")
	}
	if !strings.Contains(err.Error(), "inbox tally: node 4 ") {
		t.Fatalf("expected an inbox tally violation at node 4, got: %v", err)
	}
}

// TestAttachRequiresCycleZero: the shadow ledgers assume observation
// from the first cycle, so late attachment must be refused loudly.
func TestAttachRequiresCycleZero(t *testing.T) {
	net := network.New(network.Config{Kind: network.AFC, Seed: 1})
	net.Step()
	defer func() {
		if recover() == nil {
			t.Fatal("attach after the first cycle did not panic")
		}
	}()
	check.Attach(net)
}
