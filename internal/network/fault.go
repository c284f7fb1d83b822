package network

import (
	"fmt"

	"afcnet/internal/router"
	"afcnet/internal/topology"
)

// Fault injection: the scenario layer (internal/scenario) kills links
// and routers mid-run and throttles link capacity over duty windows. All
// mutators here must be called from serial ticker context — the scenario
// engine is registered with AddTicker and therefore runs after the
// router bank, outside any sharded parallel phase — so no journaling is
// needed even on sharded runs.
//
// Semantics per element:
//
//   - Dead link: both directed halves stop carrying data, credits and
//     control. Flits already in flight on the pipe when it dies are
//     stranded there forever (they stay visible to the pipe's in-flight
//     scans, so conservation ledgers still balance). The invariant
//     checker excludes dead edges from its credit ledgers.
//   - Dead router: frozen entirely — Tick and FastForward no-op and
//     Quiescent reports true, so held flits stay parked but enumerable.
//     All of its links die with it.
//   - Throttled link: data blocked only; credits and control still flow,
//     so credit ledgers hold without checker exclusions. Reversible —
//     the scenario engine toggles it at duty-window boundaries.

// faultEdge is one directed half of a mesh link, identified by the
// sending router and its output direction.
type faultEdge struct {
	Node topology.NodeID
	Dir  topology.Dir
}

// faultable returns node's router as a fault-injection target. Every
// kind the network constructs implements router.FaultInjectable.
func (n *Network) faultable(node topology.NodeID) router.FaultInjectable {
	fi, ok := n.routers[node].(router.FaultInjectable)
	if !ok {
		panic(fmt.Sprintf("network: router kind %T at node %d does not support fault injection", n.routers[node], node))
	}
	return fi
}

// KillLink permanently kills the bidirectional link between node and its
// neighbor in direction d. A no-op at mesh boundaries (no link) and for
// already-dead links; idempotent.
func (n *Network) KillLink(node topology.NodeID, d topology.Dir) {
	nb, ok := n.mesh.Neighbor(node, d)
	if !ok {
		return
	}
	n.killHalf(node, d)
	n.killHalf(nb, d.Opposite())
}

func (n *Network) killHalf(node topology.NodeID, d topology.Dir) {
	if n.deadLinks == nil {
		n.deadLinks = make(map[faultEdge]bool)
	}
	e := faultEdge{Node: node, Dir: d}
	if n.deadLinks[e] {
		return
	}
	n.deadLinks[e] = true
	n.haveFault = true
	n.faultable(node).SetPortDead(d)
}

// KillRouter permanently freezes node's router and kills all of its
// links. Idempotent.
func (n *Network) KillRouter(node topology.NodeID) {
	if n.deadNodes == nil {
		n.deadNodes = make([]bool, n.mesh.Nodes())
	}
	if n.deadNodes[node] {
		return
	}
	n.deadNodes[node] = true
	n.haveFault = true
	for d := topology.Dir(0); d < topology.NumDirs; d++ {
		n.KillLink(node, d)
	}
	n.faultable(node).SetDead()
}

// SetLinkBlocked sets (or clears) the throttled state of both directions
// of the link between node and its neighbor in direction d: data stops
// flowing but credits and control still do. Dead link halves are left
// dead — unblocking never resurrects a killed link. A no-op at mesh
// boundaries.
func (n *Network) SetLinkBlocked(node topology.NodeID, d topology.Dir, blocked bool) {
	nb, ok := n.mesh.Neighbor(node, d)
	if !ok {
		return
	}
	if !n.LinkDead(node, d) {
		n.faultable(node).SetPortBlocked(d, blocked)
	}
	if opp := d.Opposite(); !n.LinkDead(nb, opp) {
		n.faultable(nb).SetPortBlocked(opp, blocked)
	}
}

// LinkDead reports whether the directed link half from node toward d has
// been killed. The invariant checker uses it to exclude dead edges from
// its credit ledgers.
func (n *Network) LinkDead(node topology.NodeID, d topology.Dir) bool {
	return n.deadLinks[faultEdge{Node: node, Dir: d}]
}

// RouterDead reports whether node's router has been killed.
func (n *Network) RouterDead(node topology.NodeID) bool {
	return n.deadNodes != nil && n.deadNodes[node]
}

// FaultsActive reports whether any dead link or dead router exists. The
// invariant checker relaxes its flit-age bound when true: flits stranded
// behind dead elements are expected, not livelock.
func (n *Network) FaultsActive() bool { return n.haveFault }
