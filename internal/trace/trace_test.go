package trace

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"afcnet/internal/cmp"
	"afcnet/internal/flit"
	"afcnet/internal/network"
	"afcnet/internal/topology"
)

func TestRecordCapturesClosedLoopTraffic(t *testing.T) {
	net := network.New(network.Config{Kind: network.Backpressured, Seed: 3})
	tr := Record(net)
	sys := cmp.NewSystem(net, cmp.Ocean(), net.RandStream)
	if _, ok := sys.Measure(100, 500, 3_000_000); !ok {
		t.Fatal("timeout")
	}
	StopRecording(net)
	before := len(tr.Events)
	if before == 0 {
		t.Fatal("nothing recorded")
	}
	net.Run(500)
	if len(tr.Events) != before {
		t.Error("recording continued after StopRecording")
	}
	// Requests, responses and (usually) writebacks should all appear.
	perVN := map[flit.VN]int{}
	for _, e := range tr.Events {
		perVN[e.VN]++
		if e.Src == e.Dst {
			t.Fatal("self-addressed event recorded")
		}
	}
	if perVN[flit.VNReq] == 0 || perVN[flit.VNData] == 0 {
		t.Errorf("VN mix missing classes: %v", perVN)
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	tr := &Trace{Events: []Event{
		{At: 5, Src: 0, Dst: 8, VN: flit.VNData, Len: 17, Payload: 42},
		{At: 2, Src: 3, Dst: 1, VN: flit.VNReq, Len: 1, Payload: 7},
	}}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Events) != 2 || got.Events[0] != tr.Events[0] {
		t.Fatalf("round trip = %+v", got.Events)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	cases := []string{
		"1 2 3\n",       // too few fields
		"1 2 3 9 1 0\n", // bad VN
		"1 2 3 0 0 0\n", // zero length
		"x y z a b c\n", // not numbers
	}
	for _, c := range cases {
		if _, err := Read(bytes.NewBufferString(c)); err == nil {
			t.Errorf("accepted garbage %q", c)
		}
	}
}

// TestReadRejectsTrailingText: a line must be exactly six non-negative
// integers; extra fields or text glued to a number are errors that name
// the offending line, never silently dropped.
func TestReadRejectsTrailingText(t *testing.T) {
	const good = "0 1 2 0 1 5\n"
	cases := []struct {
		name string
		text string
		line int // 0: accepted
	}{
		{"well formed", good + "\n  3 4 5 2 17 9  \n", 0},
		{"extra fields", "0 1 2 0 1 5 junk 7\n", 1},
		{"seventh number", good + "0 1 2 0 1 5 7\n", 2},
		{"text glued to a number", good + good + "0 1 2 0 1 5junk\n", 3},
		{"trailing word", "0 1 2 0 1 5 # note\n", 1},
		{"negative node", good + "0 -1 2 0 1 5\n", 2},
		{"fractional length", "0 1 2 0 1.5 5\n", 1},
		{"hex payload", "0 1 2 0 1 0x5\n", 1},
	}
	for _, c := range cases {
		tr, err := Read(bytes.NewBufferString(c.text))
		if c.line == 0 {
			if err != nil || len(tr.Events) != 2 {
				t.Errorf("%s: Read = %v, %v; want 2 events", c.name, tr, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: accepted %q as %+v", c.name, c.text, tr.Events)
			continue
		}
		if want := fmt.Sprintf("line %d:", c.line); !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %q does not name %q", c.name, err, want)
		}
	}
}

func TestValidateFor(t *testing.T) {
	mesh := topology.NewMesh(3, 3)
	cases := []struct {
		name     string
		src, dst topology.NodeID
		ok       bool
	}{
		{"inside", 0, 8, true},
		{"self", 4, 4, true},
		{"src past last node", 9, 0, false},
		{"dst past last node", 0, 9, false},
		{"negative src", -1, 2, false},
		{"negative dst", 2, -1, false},
	}
	for _, c := range cases {
		tr := &Trace{Events: []Event{
			{At: 1, Src: 0, Dst: 1, VN: flit.VNReq, Len: 1},
			{At: 2, Src: c.src, Dst: c.dst, VN: flit.VNReq, Len: 1},
		}}
		err := tr.ValidateFor(mesh)
		if (err == nil) != c.ok {
			t.Errorf("%s: ValidateFor(3x3) = %v, want ok=%v", c.name, err, c.ok)
		}
	}
	if err := (&Trace{}).ValidateFor(mesh); err != nil {
		t.Errorf("empty trace: %v", err)
	}
}

func TestWindowAndHelpers(t *testing.T) {
	tr := &Trace{Events: []Event{
		{At: 10, Src: 0, Dst: 1, VN: flit.VNReq, Len: 1},
		{At: 20, Src: 1, Dst: 2, VN: flit.VNData, Len: 17},
		{At: 30, Src: 2, Dst: 3, VN: flit.VNReq, Len: 1},
	}}
	w := tr.Window(15, 30)
	if len(w.Events) != 1 || w.Events[0].At != 5 {
		t.Fatalf("window = %+v", w.Events)
	}
	if tr.Flits() != 19 {
		t.Errorf("flits = %d", tr.Flits())
	}
	tr.Sort()
	if tr.Duration() != 21 {
		t.Errorf("duration = %d", tr.Duration())
	}
}

// TestReplayReproducesInjections: replaying a recorded window into an
// identical network creates the same packets (count and flit volume).
func TestReplayReproducesInjections(t *testing.T) {
	src := network.New(network.Config{Kind: network.Backpressured, Seed: 5})
	tr := Record(src)
	sys := cmp.NewSystem(src, cmp.Ocean(), src.RandStream)
	if _, ok := sys.Measure(100, 600, 3_000_000); !ok {
		t.Fatal("timeout")
	}
	StopRecording(src)
	tr.Sort()

	dst := network.New(network.Config{Kind: network.Backpressured, Seed: 6})
	rp := NewReplayer(dst, tr)
	dst.AddTicker(rp)
	limit := tr.Duration() + 200_000
	if !dst.RunUntil(func() bool { return rp.Done() && dst.Drained() }, limit) {
		t.Fatalf("replay did not complete: %d/%d events", rp.next, len(tr.Events))
	}
	if got := dst.CreatedPackets(); got != uint64(len(tr.Events)) {
		t.Fatalf("replayed %d packets, trace has %d", got, len(tr.Events))
	}
	if dst.DeliveredPackets() != dst.CreatedPackets() {
		t.Fatalf("replay lost packets: %d/%d", dst.DeliveredPackets(), dst.CreatedPackets())
	}
}

// TestTraceDrivenMissesFeedback demonstrates the paper's methodology
// argument: a trace recorded on the backpressured network, replayed
// open-loop into a backpressureless network, over-drives it — source
// queues grow far beyond anything the closed loop (whose MSHRs throttle
// issue) would produce.
func TestTraceDrivenMissesFeedback(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	// Record a high-load window on the fast (backpressured) network.
	src := network.New(network.Config{Kind: network.Backpressured, Seed: 7})
	tr := Record(src)
	sys := cmp.NewSystem(src, cmp.Apache(), src.RandStream)
	if _, ok := sys.Measure(500, 4000, 10_000_000); !ok {
		t.Fatal("timeout")
	}
	StopRecording(src)
	tr.Sort()
	win := tr.Window(tr.Events[0].At, tr.Events[0].At+8000)

	// Replay into a backpressureless network and watch the backlog.
	dst := network.New(network.Config{Kind: network.Bless, Seed: 8})
	rp := NewReplayer(dst, win)
	dst.AddTicker(rp)
	dst.RunUntil(rp.Done, 100_000)
	backlog := dst.CreatedPackets() - dst.DeliveredPackets()

	// The closed loop on the same network never accumulates anything
	// comparable: MSHRs bound outstanding misses.
	closed := network.New(network.Config{Kind: network.Bless, Seed: 8})
	csys := cmp.NewSystem(closed, cmp.Apache(), closed.RandStream)
	if _, ok := csys.Measure(500, 2000, 10_000_000); !ok {
		t.Fatal("timeout")
	}
	closedBacklog := closed.CreatedPackets() - closed.DeliveredPackets()

	if backlog < 2*closedBacklog {
		t.Errorf("trace replay backlog %d not clearly above closed-loop backlog %d — feedback effect not visible",
			backlog, closedBacklog)
	}
	t.Logf("open-loop replay backlog %d vs closed-loop %d", backlog, closedBacklog)
}
