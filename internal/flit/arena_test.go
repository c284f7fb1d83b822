package flit

import (
	"reflect"
	"testing"
)

func testPacket(length int) Packet {
	return Packet{ID: 7, Src: 1, Dst: 4, VN: VNData, Len: length, CreatedAt: 42, Payload: 99}
}

// stripHandle copies a flit without its arena handle so pooled and heap
// flits can be compared field for field.
func stripHandle(f Flit) Flit {
	f.blk = nil
	f.gen = 0
	return f
}

func TestPacketizeMatchesFlits(t *testing.T) {
	a := NewArena()
	for _, length := range []int{1, 17} {
		p := testPacket(length)
		want := p.Flits()
		got := a.Packetize(p)
		if len(got) != len(want) {
			t.Fatalf("len %d: got %d flits, want %d", length, len(got), len(want))
		}
		for i := range got {
			if !reflect.DeepEqual(stripHandle(*got[i]), *want[i]) {
				t.Errorf("len %d flit %d: got %+v, want %+v", length, i, stripHandle(*got[i]), *want[i])
			}
			if got[i].blk == nil {
				t.Errorf("len %d flit %d: pooled flit has no arena handle", length, i)
			}
		}
		for _, f := range got {
			Recycle(f)
		}
	}
	if a.Live() != 0 {
		t.Fatalf("live = %d after recycling everything", a.Live())
	}
}

func TestArenaReusesBlocks(t *testing.T) {
	a := NewArena()
	fs := a.Packetize(testPacket(17))
	first := fs[0]
	for _, f := range fs {
		Recycle(f)
	}
	fs2 := a.Packetize(testPacket(17))
	if fs2[0] != first {
		t.Fatalf("second packetize did not reuse the recycled block")
	}
	if a.Blocks() != 1 {
		t.Fatalf("blocks = %d, want 1", a.Blocks())
	}
	// A different length class mints its own block.
	a.Packetize(testPacket(1))
	if a.Blocks() != 2 {
		t.Fatalf("blocks = %d after second length class, want 2", a.Blocks())
	}
	if got := a.Live(); got != 17+1 {
		t.Fatalf("live = %d, want 18", got)
	}
}

func TestRecycleHeapFlitIsNoop(t *testing.T) {
	fs := testPacket(2).Flits()
	Recycle(fs[0]) // must not panic
	if err := CheckHandle(fs[0]); err != nil {
		t.Fatalf("heap flit failed handle check: %v", err)
	}
}

func TestDoubleRecyclePanics(t *testing.T) {
	a := NewArena()
	fs := a.Packetize(testPacket(3))
	Recycle(fs[1])
	defer func() {
		if recover() == nil {
			t.Fatalf("double recycle did not panic")
		}
	}()
	Recycle(fs[1])
}

func TestUseAfterFreePanics(t *testing.T) {
	a := NewArena()
	fs := a.Packetize(testPacket(1))
	stale := *fs[0] // the held copy keeps the old generation stamp
	Recycle(fs[0])
	a.Packetize(testPacket(1)) // reissues the block, bumping the generation
	defer func() {
		if recover() == nil {
			t.Fatalf("stale-generation recycle did not panic")
		}
	}()
	Recycle(&stale)
}

func TestCheckHandleDetectsCorruption(t *testing.T) {
	a := NewArena()
	fs := a.Packetize(testPacket(2))
	if err := CheckHandle(fs[0]); err != nil {
		t.Fatalf("fresh handle failed check: %v", err)
	}
	// Deliberately corrupt the lifecycle: recycle a flit that is still
	// "in flight" from the caller's point of view. The conservation scan
	// must now flag the handle.
	Recycle(fs[0])
	if err := CheckHandle(fs[0]); err == nil {
		t.Fatalf("recycled-but-held flit passed the handle check")
	}
	// And a handle that outlives a full block reuse.
	stale := *fs[1]
	Recycle(fs[1])
	a.Packetize(testPacket(2))
	if err := CheckHandle(&stale); err == nil {
		t.Fatalf("stale-generation flit passed the handle check")
	}
}

func TestReclaim(t *testing.T) {
	a := NewArena()
	fs := a.Packetize(testPacket(17))
	a.Packetize(testPacket(1))
	a.Reclaim()
	if a.Live() != 0 {
		t.Fatalf("live = %d after reclaim", a.Live())
	}
	if err := CheckHandle(fs[0]); err == nil {
		t.Fatalf("handle survived reclaim")
	}
	// Both blocks are reusable again.
	a.Packetize(testPacket(17))
	a.Packetize(testPacket(1))
	if a.Blocks() != 2 {
		t.Fatalf("blocks = %d after reclaim reuse, want 2", a.Blocks())
	}
}

func TestOverlongPacketFallsBack(t *testing.T) {
	a := NewArena()
	fs := a.Packetize(testPacket(maxPooledLen + 1))
	if len(fs) != maxPooledLen+1 {
		t.Fatalf("got %d flits", len(fs))
	}
	if fs[0].blk != nil {
		t.Fatalf("overlong packet got a pooled handle")
	}
	if a.Live() != 0 || a.Blocks() != 0 {
		t.Fatalf("overlong packet touched the arena: live=%d blocks=%d", a.Live(), a.Blocks())
	}
}
