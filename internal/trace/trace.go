// Package trace records packet traffic from one run and replays it into
// another network — trace-driven evaluation. The paper's methodology
// section argues against relying on it: "trace-driven evaluations do not
// include the feedback effect of the network on execution time", so a
// trace recorded on a fast network over-drives a slow one (its queues
// grow without the MSHR throttling that a real system would apply). The
// TraceVsExecution experiment quantifies exactly that effect.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"afcnet/internal/flit"
	"afcnet/internal/network"
	"afcnet/internal/topology"
)

// Event is one recorded packet creation.
type Event struct {
	At      uint64
	Src     topology.NodeID
	Dst     topology.NodeID
	VN      flit.VN
	Len     int
	Payload uint64
}

// Trace is a time-ordered sequence of packet creations.
type Trace struct {
	Events []Event
}

// Record installs creation hooks on every NI of net; events accumulate in
// the returned Trace until StopRecording.
func Record(net *network.Network) *Trace {
	tr := &Trace{}
	for i := 0; i < net.Nodes(); i++ {
		node := topology.NodeID(i)
		net.NI(node).SetCreateHook(func(p flit.Packet) {
			tr.Events = append(tr.Events, Event{
				At:      p.CreatedAt,
				Src:     p.Src,
				Dst:     p.Dst,
				VN:      p.VN,
				Len:     p.Len,
				Payload: p.Payload,
			})
		})
	}
	return tr
}

// StopRecording removes the hooks installed by Record.
func StopRecording(net *network.Network) {
	for i := 0; i < net.Nodes(); i++ {
		net.NI(topology.NodeID(i)).SetCreateHook(nil)
	}
}

// Sort orders events by creation time (stable on src for determinism).
func (t *Trace) Sort() {
	sort.SliceStable(t.Events, func(i, j int) bool {
		if t.Events[i].At != t.Events[j].At {
			return t.Events[i].At < t.Events[j].At
		}
		return t.Events[i].Src < t.Events[j].Src
	})
}

// Window returns the sub-trace with creation times in [from, to), shifted
// so the first cycle is 0.
func (t *Trace) Window(from, to uint64) *Trace {
	out := &Trace{}
	for _, e := range t.Events {
		if e.At >= from && e.At < to {
			e.At -= from
			out.Events = append(out.Events, e)
		}
	}
	return out
}

// Flits returns the total flit count of the trace.
func (t *Trace) Flits() uint64 {
	var n uint64
	for _, e := range t.Events {
		n += uint64(e.Len)
	}
	return n
}

// Duration returns the creation-time span of the (sorted) trace.
func (t *Trace) Duration() uint64 {
	if len(t.Events) == 0 {
		return 0
	}
	return t.Events[len(t.Events)-1].At - t.Events[0].At + 1
}

// ValidateFor reports an error for the first event whose source or
// destination is not a node of mesh. A trace carries bare node numbers,
// so one recorded on a larger mesh would index past the replay
// network's NIs mid-run; call this before cycle 0 instead.
func (t *Trace) ValidateFor(mesh topology.Mesh) error {
	nodes := topology.NodeID(mesh.Nodes())
	for i, e := range t.Events {
		if e.Src < 0 || e.Src >= nodes || e.Dst < 0 || e.Dst >= nodes {
			return fmt.Errorf("trace: event %d (%d -> %d at cycle %d) names a node outside the %dx%d mesh",
				i, e.Src, e.Dst, e.At, mesh.Width, mesh.Height)
		}
	}
	return nil
}

// Write serializes the trace as one line per event
// ("cycle src dst vn len payload").
func (t *Trace) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, e := range t.Events {
		if _, err := fmt.Fprintf(bw, "%d %d %d %d %d %d\n",
			e.At, e.Src, e.Dst, e.VN, e.Len, e.Payload); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read parses a trace written by Write. Blank lines are skipped; any
// other line must be exactly the six non-negative integers, so a line
// with trailing text is an error naming its line number, not silently
// truncated.
func Read(r io.Reader) (*Trace, error) {
	tr := &Trace{}
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		e, err := parseEvent(fields)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %v", line, err)
		}
		tr.Events = append(tr.Events, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return tr, nil
}

// eventFields names the columns of a trace line, in Write's order.
var eventFields = [...]string{"cycle", "src", "dst", "vn", "len", "payload"}

// parseEvent parses the fields of one trace line.
func parseEvent(fields []string) (Event, error) {
	if len(fields) != len(eventFields) {
		return Event{}, fmt.Errorf("%d fields, want %d (%s)",
			len(fields), len(eventFields), strings.Join(eventFields[:], " "))
	}
	var v [len(eventFields)]uint64
	for i, f := range fields {
		n, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return Event{}, fmt.Errorf("%s %q is not a non-negative integer", eventFields[i], f)
		}
		v[i] = n
	}
	if v[3] >= flit.NumVNs {
		return Event{}, fmt.Errorf("bad VN %d", v[3])
	}
	if v[4] < 1 || v[4] > math.MaxInt32 {
		return Event{}, fmt.Errorf("bad length %d", v[4])
	}
	return Event{
		At:      v[0],
		Src:     topology.NodeID(v[1]),
		Dst:     topology.NodeID(v[2]),
		VN:      flit.VN(v[3]),
		Len:     int(v[4]),
		Payload: v[5],
	}, nil
}

// Replayer feeds a trace into a network open-loop: each event's packet is
// created at its recorded (shifted) cycle regardless of network state —
// exactly the missing-feedback property the paper warns about. Register
// with net.AddTicker.
type Replayer struct {
	net   *network.Network
	trace *Trace
	next  int
	start uint64
	began bool
}

// NewReplayer returns a replayer for tr (which it sorts).
func NewReplayer(net *network.Network, tr *Trace) *Replayer {
	tr.Sort()
	return &Replayer{net: net, trace: tr}
}

// Done reports whether every event has been injected.
func (r *Replayer) Done() bool { return r.next >= len(r.trace.Events) }

// Tick implements sim.Ticker.
func (r *Replayer) Tick(now uint64) {
	if !r.began {
		r.began = true
		r.start = now
	}
	rel := now - r.start
	for r.next < len(r.trace.Events) && r.trace.Events[r.next].At <= rel {
		e := r.trace.Events[r.next]
		r.next++
		if e.Src == e.Dst {
			continue // defensive: self-addressed events are dropped
		}
		r.net.NI(e.Src).SendPacket(now, e.Dst, e.VN, e.Len, e.Payload)
	}
}

// Quiescent implements sim.Quiescer: nothing to inject before the next
// event's stamp (or ever again, once the trace is exhausted). The first
// Tick must run densely because it latches the start cycle.
func (r *Replayer) Quiescent(now uint64) bool {
	if !r.began {
		return false
	}
	return r.Done() || r.start+r.trace.Events[r.next].At > now
}

// FastForward implements sim.Quiescer (no per-cycle state to advance).
func (r *Replayer) FastForward(cycles uint64) {}

// NextWake implements sim.Sleeper: the absolute cycle of the next event.
func (r *Replayer) NextWake(now uint64) (uint64, bool) {
	if !r.began || r.Done() {
		return 0, false
	}
	return r.start + r.trace.Events[r.next].At, true
}
