// Package cmp is the closed-loop chip-multiprocessor substrate standing in
// for the paper's Simics/GEMS full-system stack (see DESIGN.md for the
// substitution argument). Each mesh node hosts a core with private L1
// MSHRs and a shared-L2 bank (Table II: "each node is a core and an L2
// cache bank"). Cores issue cache misses bounded by their MSHR count;
// misses travel the network as 1-flit control requests; the home bank
// answers after its access latency (plus DRAM latency for the off-chip
// fraction) with a 17-flit data packet; completions free MSHRs and
// occasionally emit dirty-writeback data packets.
//
// The substrate supplies the two properties the paper's evaluation hinges
// on: the network load level of each workload, and the feedback of network
// latency into execution time (a slower network holds MSHRs longer, which
// throttles issue and stretches runtime). Execution time for a fixed
// amount of work — the paper's performance metric — falls out directly.
package cmp

import (
	"fmt"
	"math/rand"

	"afcnet/internal/flit"
	"afcnet/internal/network"
	"afcnet/internal/ni"
	"afcnet/internal/sim"
	"afcnet/internal/topology"
)

// message types carried in packet payloads
const (
	msgRequest uint64 = iota + 1
	msgResponse
	msgWriteback
	msgWBRequest // writeback pre-allocation request (control)
	msgWBAck     // writeback pre-allocation grant (control)

	msgShift = 56
)

func payload(kind, tx uint64) uint64 { return kind<<msgShift | tx }
func payloadKind(p uint64) uint64    { return p >> msgShift }
func payloadTx(p uint64) uint64      { return p & (1<<msgShift - 1) }

// Params defines a workload preset.
type Params struct {
	// Name identifies the workload.
	Name string
	// IssueProb is the per-cycle probability that a core with a free MSHR
	// issues a new miss (geometric think time).
	IssueProb float64
	// MSHRs bounds outstanding misses per core (Table II: 16).
	MSHRs int
	// L2Latency is the bank access latency in cycles (Table II: 12).
	L2Latency int
	// MemLatency is the off-chip access latency added to the MemFraction
	// of misses (Table II: 250).
	MemLatency int
	// MemFraction is the fraction of L2 accesses that miss to memory.
	MemFraction float64
	// WritebackFraction is the probability a completed miss also emits a
	// dirty writeback (an "unexpected" data packet, Section II).
	WritebackFraction float64
	// HomeLocality is the probability the home bank is a mesh neighbor
	// rather than uniformly random; commercial workloads with OS-assisted
	// placement see substantial locality, and it lets the closed loop
	// reach the paper's high injection rates.
	HomeLocality float64
	// WritebackPreAlloc enables the Section II protocol variant for
	// "unexpected" packets: a dirty writeback first requests a receive
	// buffer at the home bank (control message), holds the data until the
	// grant arrives, and only then sends it — bounding receive-side
	// buffering without worst-case provisioning.
	WritebackPreAlloc bool
	// WBBufferEntries is the per-bank writeback receive-buffer capacity
	// used when WritebackPreAlloc is set (default 16, like the MSHRs).
	WBBufferEntries int
}

// Validate checks parameter sanity.
func (p Params) Validate() error {
	switch {
	case p.IssueProb <= 0 || p.IssueProb > 1:
		return fmt.Errorf("cmp: issue probability must be in (0,1], got %g", p.IssueProb)
	case p.MSHRs < 1:
		return fmt.Errorf("cmp: MSHRs must be >= 1, got %d", p.MSHRs)
	case p.L2Latency < 1:
		return fmt.Errorf("cmp: L2 latency must be >= 1, got %d", p.L2Latency)
	case p.MemFraction < 0 || p.MemFraction > 1:
		return fmt.Errorf("cmp: memory fraction must be in [0,1], got %g", p.MemFraction)
	case p.WritebackFraction < 0 || p.WritebackFraction > 1:
		return fmt.Errorf("cmp: writeback fraction must be in [0,1], got %g", p.WritebackFraction)
	case p.HomeLocality < 0 || p.HomeLocality > 1:
		return fmt.Errorf("cmp: home locality must be in [0,1], got %g", p.HomeLocality)
	case p.WritebackPreAlloc && p.WBBufferEntries < 0:
		return fmt.Errorf("cmp: writeback buffer entries must be >= 0, got %d", p.WBBufferEntries)
	}
	return nil
}

type coreState struct {
	outstanding int
	nextTx      uint64
	neighbors   []topology.NodeID
}

// bankJob is an L2 bank access whose data response leaves when the job
// falls due.
type bankJob struct {
	bank topology.NodeID
	core topology.NodeID
	tx   uint64
}

// System couples a CMP workload to a network. Construct it after the
// network, before running.
type System struct {
	net    *network.Network
	params Params
	cores  []coreState
	jobs   sim.DueHeap[bankJob]
	rngs   []*rand.Rand

	totalCompleted uint64
	writebacksSent uint64
	stopped        bool
	fullCores      int // cores with every MSHR occupied (issue loop is RNG-free for them)

	// writeback pre-allocation state (WritebackPreAlloc variant)
	wbEntries  []int               // per-bank receive-buffer entries in use
	wbWaiters  [][]topology.NodeID // per-bank cores awaiting a grant
	wbHeld     []int               // per-core writebacks held awaiting grant
	wbRequests uint64
	wbMaxHeld  int

	// cells, non-nil exactly when the network runs the sharded tick, is
	// the per-shard staging of onPacket's cross-shard mutations. The
	// handler fires inside the parallel phase (deliveries happen in
	// router ticks), where everything it touches is destination-local
	// except the bank-job heap and the global counters; those stage here
	// and drainStaged merges them shard-ascending — serial node order —
	// via the network's drain hook.
	cells []shardCell
}

// shardCell stages one shard's cross-shard CMP effects for one cycle.
type shardCell struct {
	jobs       []sim.Timed[bankJob]
	completed  uint64
	writebacks uint64
	wbReqs     uint64
	fullDelta  int
	maxHeld    int
}

// NewSystem attaches a CMP running the given workload to net. seeds mints
// per-core random streams. It panics on invalid parameters (presets are
// validated in tests; custom parameters should be validated by the
// caller).
func NewSystem(net *network.Network, p Params, seeds func() *rand.Rand) *System {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	if p.WritebackPreAlloc && p.WBBufferEntries == 0 {
		p.WBBufferEntries = 16
	}
	s := &System{
		net:       net,
		params:    p,
		cores:     make([]coreState, net.Nodes()),
		rngs:      make([]*rand.Rand, net.Nodes()),
		wbEntries: make([]int, net.Nodes()),
		wbWaiters: make([][]topology.NodeID, net.Nodes()),
		wbHeld:    make([]int, net.Nodes()),
	}
	mesh := net.Mesh()
	for i := range s.cores {
		s.rngs[i] = seeds()
		node := topology.NodeID(i)
		for d := topology.Dir(0); d < topology.NumDirs; d++ {
			if nb, ok := mesh.Neighbor(node, d); ok {
				s.cores[i].neighbors = append(s.cores[i].neighbors, nb)
			}
		}
		nif := net.NI(node)
		nif.SetHandler(s.onPacket)
	}
	if net.ShardCount() > 1 {
		s.cells = make([]shardCell, net.ShardCount())
		net.AddDrainHook(s.drainStaged)
	}
	net.AddTicker(s)
	return s
}

// Reattach rebinds the system to its (freshly Reset) network as
// NewSystem would: same per-core stream numbering, same handler
// registration, same ticker slot — but reusing every slice, heap and
// generator the previous cell grew. p may change the workload; the
// usual caveats of NewSystem apply.
func (s *System) Reattach(p Params) {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	if p.WritebackPreAlloc && p.WBBufferEntries == 0 {
		p.WBBufferEntries = 16
	}
	s.params = p
	for i := range s.cores {
		s.cores[i] = coreState{neighbors: s.cores[i].neighbors}
		s.net.ReseedStream(s.rngs[i])
		s.net.NI(topology.NodeID(i)).SetHandler(s.onPacket)
	}
	s.jobs = s.jobs[:0]
	s.totalCompleted = 0
	s.writebacksSent = 0
	s.stopped = false
	s.fullCores = 0
	for i := range s.wbEntries {
		s.wbEntries[i] = 0
		s.wbWaiters[i] = s.wbWaiters[i][:0]
		s.wbHeld[i] = 0
	}
	s.wbRequests = 0
	s.wbMaxHeld = 0
	for i := range s.cells {
		s.cells[i].jobs = s.cells[i].jobs[:0]
		s.cells[i] = shardCell{jobs: s.cells[i].jobs}
	}
	if s.cells != nil {
		// Reset dropped the previous cell's drain hooks along with its
		// tickers; re-register ours exactly as NewSystem did.
		s.net.AddDrainHook(s.drainStaged)
	}
	s.net.AddTicker(s)
}

// cell returns the staging cell of node's shard, nil on a serial
// network (mutate the globals inline).
func (s *System) cell(node topology.NodeID) *shardCell {
	if s.cells == nil {
		return nil
	}
	return &s.cells[s.net.ShardOf(node)]
}

// drainStaged merges the per-shard staging cells into the global state,
// shard-ascending: each cell holds its shard's effects in tick order and
// the bands are ascending node ranges, so the merged order — and hence
// the job heap's layout under equal due times — matches the serial
// kernel exactly.
func (s *System) drainStaged(now uint64) {
	for i := range s.cells {
		c := &s.cells[i]
		for _, j := range c.jobs {
			s.jobs.Push(j.Due, j.V)
		}
		s.totalCompleted += c.completed
		s.writebacksSent += c.writebacks
		s.wbRequests += c.wbReqs
		s.fullCores += c.fullDelta
		if c.maxHeld > s.wbMaxHeld {
			s.wbMaxHeld = c.maxHeld
		}
		*c = shardCell{jobs: c.jobs[:0]}
	}
}

// Params returns the workload parameters.
func (s *System) Params() Params { return s.params }

// CompletedTransactions returns the total misses completed so far.
func (s *System) CompletedTransactions() uint64 { return s.totalCompleted }

// WritebacksSent returns the number of dirty writebacks emitted.
func (s *System) WritebacksSent() uint64 { return s.writebacksSent }

// Outstanding returns the currently outstanding misses across all cores.
func (s *System) Outstanding() int {
	t := 0
	for i := range s.cores {
		t += s.cores[i].outstanding
	}
	return t
}

// StopIssuing halts new miss generation (drain/quiesce phases); in-flight
// transactions and the writeback protocol continue to completion.
func (s *System) StopIssuing() { s.stopped = true }

// Quiescent implements sim.Quiescer: the issue loop draws randomness only
// for cores with a free MSHR, so Tick is a provable no-op exactly when
// issuing is off (stopped, or every core MSHR-saturated) and no bank job
// is due. Responses arriving through the network update fullCores via the
// NI handler before this entry's slot in the tick order, so the check
// always sees this cycle's state.
func (s *System) Quiescent(now uint64) bool {
	if !s.stopped && s.fullCores != len(s.cores) {
		return false
	}
	return len(s.jobs) == 0 || s.jobs[0].Due > now
}

// FastForward implements sim.Quiescer: a quiescent Tick touches no
// per-cycle state (no RNG draws, no heap pops), so there is nothing to
// batch-advance.
func (s *System) FastForward(cycles uint64) {}

// NextWake implements sim.Sleeper: the next bank-job completion. While the
// rest of the system is frozen no new requests arrive, so the heap head is
// the only future state change.
func (s *System) NextWake(now uint64) (uint64, bool) {
	if len(s.jobs) == 0 {
		return 0, false
	}
	return s.jobs[0].Due, true
}

// Tick implements sim.Ticker: issue new misses and complete due bank jobs.
func (s *System) Tick(now uint64) {
	if s.stopped {
		s.completeJobs(now)
		return
	}
	for i := range s.cores {
		c := &s.cores[i]
		if c.outstanding >= s.params.MSHRs {
			continue
		}
		rng := s.rngs[i]
		if rng.Float64() >= s.params.IssueProb {
			continue
		}
		node := topology.NodeID(i)
		home := s.pickHome(node, rng)
		c.nextTx++
		tx := uint64(i)<<32 | c.nextTx
		c.outstanding++
		if c.outstanding == s.params.MSHRs {
			s.fullCores++
		}
		s.net.NI(node).SendPacket(now, home, flit.VNReq,
			flit.ControlPacketFlits, payload(msgRequest, tx))
	}

	s.completeJobs(now)
}

func (s *System) completeJobs(now uint64) {
	for len(s.jobs) > 0 && s.jobs[0].Due <= now {
		j := s.jobs.Pop()
		s.net.NI(j.bank).SendPacket(now, j.core, flit.VNData,
			flit.DataPacketFlits, payload(msgResponse, j.tx))
	}
}

// pickHome selects the home L2 bank for a miss: a mesh neighbor with
// probability HomeLocality, a uniformly random other node otherwise.
func (s *System) pickHome(node topology.NodeID, rng *rand.Rand) topology.NodeID {
	c := &s.cores[node]
	if len(c.neighbors) > 0 && rng.Float64() < s.params.HomeLocality {
		return c.neighbors[rng.Intn(len(c.neighbors))]
	}
	n := s.net.Nodes()
	d := topology.NodeID(rng.Intn(n - 1))
	if d >= node {
		d++
	}
	return d
}

// onPacket handles packets delivered at any node.
func (s *System) onPacket(now uint64, d ni.Delivered) {
	switch payloadKind(d.Payload) {
	case msgRequest:
		// The local L2 bank services the request; the data response
		// leaves after the access latency (plus DRAM for the off-chip
		// fraction).
		lat := uint64(s.params.L2Latency)
		if s.rngs[d.Dst].Float64() < s.params.MemFraction {
			lat += uint64(s.params.MemLatency)
		}
		j := bankJob{bank: d.Dst, core: d.Src, tx: payloadTx(d.Payload)}
		if cell := s.cell(d.Dst); cell != nil {
			cell.jobs = append(cell.jobs, sim.Timed[bankJob]{Due: now + lat, V: j})
		} else {
			s.jobs.Push(now+lat, j)
		}
	case msgResponse:
		// The miss completes: the MSHR frees; occasionally the evicted
		// line is dirty and must be written back to its own home bank.
		cell := s.cell(d.Dst)
		c := &s.cores[d.Dst]
		if c.outstanding == s.params.MSHRs {
			if cell != nil {
				cell.fullDelta--
			} else {
				s.fullCores--
			}
		}
		c.outstanding--
		if cell != nil {
			cell.completed++
		} else {
			s.totalCompleted++
		}
		if c.outstanding < 0 {
			panic(fmt.Sprintf("cmp: node %d completed more misses than issued", d.Dst))
		}
		rng := s.rngs[d.Dst]
		if rng.Float64() < s.params.WritebackFraction {
			home := s.pickHome(d.Dst, rng)
			if s.params.WritebackPreAlloc {
				// Hold the dirty line; request a receive buffer first.
				// The peak-held maximum stages per shard: a max of maxes
				// over the same observations equals the serial running max.
				s.wbHeld[d.Dst]++
				if cell != nil {
					if s.wbHeld[d.Dst] > cell.maxHeld {
						cell.maxHeld = s.wbHeld[d.Dst]
					}
					cell.wbReqs++
				} else {
					if s.wbHeld[d.Dst] > s.wbMaxHeld {
						s.wbMaxHeld = s.wbHeld[d.Dst]
					}
					s.wbRequests++
				}
				s.net.NI(d.Dst).SendPacket(now, home, flit.VNReq,
					flit.ControlPacketFlits, payload(msgWBRequest, 0))
			} else {
				if cell != nil {
					cell.writebacks++
				} else {
					s.writebacksSent++
				}
				s.net.NI(d.Dst).SendPacket(now, home, flit.VNData,
					flit.DataPacketFlits, payload(msgWriteback, 0))
			}
		}
	case msgWBRequest:
		// The bank grants a receive-buffer entry now or queues the
		// requester until one frees.
		if s.wbEntries[d.Dst] < s.params.WBBufferEntries {
			s.wbEntries[d.Dst]++
			s.net.NI(d.Dst).SendPacket(now, d.Src, flit.VNResp,
				flit.ControlPacketFlits, payload(msgWBAck, 0))
		} else {
			s.wbWaiters[d.Dst] = append(s.wbWaiters[d.Dst], d.Src)
		}
	case msgWBAck:
		// Grant received: release the held line as a data packet.
		s.wbHeld[d.Dst]--
		if s.wbHeld[d.Dst] < 0 {
			panic(fmt.Sprintf("cmp: node %d acked more writebacks than held", d.Dst))
		}
		if cell := s.cell(d.Dst); cell != nil {
			cell.writebacks++
		} else {
			s.writebacksSent++
		}
		s.net.NI(d.Dst).SendPacket(now, d.Src, flit.VNData,
			flit.DataPacketFlits, payload(msgWriteback, 0))
	case msgWriteback:
		// Absorbed by the bank; dirty writebacks need no response. Under
		// pre-allocation, the receive-buffer entry frees and any waiter
		// is granted.
		if s.params.WritebackPreAlloc {
			s.wbEntries[d.Dst]--
			if s.wbEntries[d.Dst] < 0 {
				panic(fmt.Sprintf("cmp: bank %d freed more wb entries than allocated", d.Dst))
			}
			if w := s.wbWaiters[d.Dst]; len(w) > 0 {
				next := w[0]
				copy(w, w[1:])
				s.wbWaiters[d.Dst] = w[:len(w)-1]
				s.wbEntries[d.Dst]++
				s.net.NI(d.Dst).SendPacket(now, next, flit.VNResp,
					flit.ControlPacketFlits, payload(msgWBAck, 0))
			}
		}
	default:
		panic(fmt.Sprintf("cmp: unknown payload kind in %+v", d))
	}
}

// WBPreallocRequests returns the number of writeback pre-allocation
// requests sent (WritebackPreAlloc variant).
func (s *System) WBPreallocRequests() uint64 { return s.wbRequests }

// WBMaxHeld returns the peak number of writebacks held at any single
// core awaiting a grant.
func (s *System) WBMaxHeld() int { return s.wbMaxHeld }

// RunResult summarizes a measured closed-loop window.
type RunResult struct {
	// Cycles is the execution time of the measured transactions.
	Cycles uint64
	// Transactions completed in the window.
	Transactions uint64
	// TransactionsPerCycle is work per time — the performance metric
	// (execution-time ratios invert it).
	TransactionsPerCycle float64
	// InjectionRate is the achieved network load in flits/node/cycle
	// (Table III's per-workload metric).
	InjectionRate float64
	// MeanNetLatency is the mean packet network latency in the window.
	MeanNetLatency float64
}

// Measure runs warmupTx transactions, resets network statistics, then
// measures the execution of measureTx further transactions. It reports
// failure (ok=false) if limit cycles elapse before completion.
func (s *System) Measure(warmupTx, measureTx uint64, limit uint64) (RunResult, bool) {
	if !s.net.RunUntil(func() bool { return s.totalCompleted >= warmupTx }, limit) {
		return RunResult{}, false
	}
	s.net.ResetStats()
	start := s.net.Now()
	base := s.totalCompleted
	if !s.net.RunUntil(func() bool { return s.totalCompleted-base >= measureTx }, limit) {
		return RunResult{}, false
	}
	cycles := s.net.Now() - start
	done := s.totalCompleted - base
	return RunResult{
		Cycles:               cycles,
		Transactions:         done,
		TransactionsPerCycle: float64(done) / float64(cycles),
		InjectionRate:        s.net.InjectionRate(),
		MeanNetLatency:       s.net.MeanNetLatency(),
	}, true
}
