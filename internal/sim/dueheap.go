package sim

// Timed is a value that falls due at cycle Due.
type Timed[T any] struct {
	Due uint64
	V   T
}

// DueHeap is a min-heap of Timed values on Due; h[0] is the earliest.
// Push and Pop sift exactly as container/heap does with a Less that
// compares Due, so values with equal Due pop in the order container/heap
// would give them, an order simulation results depend on. Unlike
// container/heap it boxes nothing: once the slice has grown, pushing and
// popping allocate nothing.
type DueHeap[T any] []Timed[T]

// Push adds v, due at cycle due.
func (h *DueHeap[T]) Push(due uint64, v T) {
	*h = append(*h, Timed[T]{Due: due, V: v})
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if s[parent].Due <= s[i].Due {
			break
		}
		s[parent], s[i] = s[i], s[parent]
		i = parent
	}
}

// Pop removes the earliest value and returns it. The heap must not be
// empty.
func (h *DueHeap[T]) Pop() T {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		j := l
		if r := l + 1; r < n && s[r].Due < s[l].Due {
			j = r
		}
		if s[i].Due <= s[j].Due {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	*h = s[:n]
	return s[n].V
}
