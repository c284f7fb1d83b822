package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// dueHeapOrder is the SHA-256 of the popped ids, as little-endian
// uint64s, of the three sequences TestDueHeapPopsInContainerHeapOrder
// runs, recorded from a container/heap over the same items with Less
// comparing due.
const dueHeapOrder = "ded7d0e8109a5904421c10144e7e3a300054523217b6683036abfddb39db1eab"

// TestDueHeapPopsInContainerHeapOrder runs three random sequences of
// 5,000 operations (two pushes per pop on average, due drawn from only
// four values so nearly every comparison is a tie), then drains the
// heap. Ties pop in a heap-shape order rather than push order, so
// matching container/heap's pops means matching its sift order.
func TestDueHeapPopsInContainerHeapOrder(t *testing.T) {
	sum := sha256.New()
	var b [8]byte
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var h DueHeap[uint64]
		last := uint64(0)
		pop := func(draining bool) {
			due := h[0].Due
			for _, e := range h {
				if e.Due < due {
					t.Fatalf("seed %d: head due %d, but %d is queued", seed, due, e.Due)
				}
			}
			if draining && due < last {
				t.Fatalf("seed %d: drain popped due %d after %d", seed, due, last)
			}
			last = due
			binary.LittleEndian.PutUint64(b[:], h.Pop())
			sum.Write(b[:])
		}
		for id := uint64(0); id < 5000; id++ {
			if len(h) > 0 && rng.Intn(3) == 0 {
				pop(false)
				continue
			}
			h.Push(uint64(rng.Intn(4)), id)
		}
		last = 0
		for len(h) > 0 {
			pop(true)
		}
	}
	if got := fmt.Sprintf("%x", sum.Sum(nil)); got != dueHeapOrder {
		t.Errorf("pop order digest %s, want container/heap's %s", got, dueHeapOrder)
	}
}

// TestDueHeapSteadyStateAllocs pins the reason the heap exists: once
// its slice has grown, a push and a pop allocate nothing.
func TestDueHeapSteadyStateAllocs(t *testing.T) {
	var h DueHeap[[2]uint64]
	for i := 0; i < 64; i++ {
		h.Push(uint64(i%7), [2]uint64{uint64(i), 0})
	}
	now := uint64(0)
	if a := testing.AllocsPerRun(1000, func() {
		now++
		h.Push(now%7, [2]uint64{now, 1})
		h.Pop()
	}); a != 0 {
		t.Errorf("push+pop allocates %.1f times, want 0", a)
	}
}
