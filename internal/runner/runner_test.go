package runner

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapOrdering(t *testing.T) {
	for _, par := range []int{1, 2, 8, 100} {
		out, err := Map(100, Options{Parallelism: par}, func(i int) (int, error) {
			return i * 3, nil
		})
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		if len(out) != 100 {
			t.Fatalf("par=%d: len=%d", par, len(out))
		}
		for i, v := range out {
			if v != i*3 {
				t.Errorf("par=%d: out[%d]=%d, want %d", par, i, v, i*3)
			}
		}
	}
}

func TestZeroCells(t *testing.T) {
	out, err := Map(0, Options{}, func(i int) (int, error) { return 0, nil })
	if err != nil || len(out) != 0 {
		t.Fatalf("out=%v err=%v", out, err)
	}
}

// TestFirstErrorWins: the returned error is the one of the lowest-indexed
// failing cell, deterministically, because cells are claimed in index
// order — the lowest failing cell is always claimed (and hence executed)
// before any later failure can set the drain flag.
func TestFirstErrorWins(t *testing.T) {
	failAt := map[int]bool{10: true, 11: true, 12: true, 40: true}
	for _, par := range []int{1, 2, 7} {
		for trial := 0; trial < 20; trial++ {
			err := Run(64, Options{Parallelism: par}, func(i int) error {
				if failAt[i] {
					return fmt.Errorf("cell %d failed", i)
				}
				return nil
			})
			if err == nil || err.Error() != "cell 10 failed" {
				t.Fatalf("par=%d: err=%v, want cell 10's error", par, err)
			}
		}
	}
}

// TestDrainOnError: every cell below the failing index executes; with
// Parallelism 1 nothing after the failure runs (exact serial behavior).
func TestDrainOnError(t *testing.T) {
	var ran [20]atomic.Bool
	boom := errors.New("boom")
	err := Run(20, Options{Parallelism: 1}, func(i int) error {
		ran[i].Store(true)
		if i == 5 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err=%v", err)
	}
	for i := 0; i <= 5; i++ {
		if !ran[i].Load() {
			t.Errorf("cell %d did not run", i)
		}
	}
	for i := 6; i < 20; i++ {
		if ran[i].Load() {
			t.Errorf("cell %d ran after the serial failure", i)
		}
	}

	// Parallel: cells before the failing index always execute.
	for i := range ran {
		ran[i].Store(false)
	}
	err = Run(20, Options{Parallelism: 4}, func(i int) error {
		ran[i].Store(true)
		if i == 5 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err=%v", err)
	}
	for i := 0; i <= 5; i++ {
		if !ran[i].Load() {
			t.Errorf("cell %d did not run", i)
		}
	}
}

func TestPanicRecovered(t *testing.T) {
	for _, par := range []int{1, 3} {
		err := Run(8, Options{Parallelism: par}, func(i int) error {
			if i == 3 {
				panic("kaboom")
			}
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), "cell 3 panicked: kaboom") {
			t.Fatalf("par=%d: err=%v", par, err)
		}
	}
}

// TestOnCellCallback: every executed cell reports exactly once with a
// non-negative duration; calls are serialized (the callback mutates
// shared state without synchronization of its own, which -race
// verifies).
func TestOnCellCallback(t *testing.T) {
	var got []int
	var errs int
	_, err := Map(50, Options{
		Parallelism: 8,
		OnCell: func(i int, err error, elapsed time.Duration) {
			got = append(got, i)
			if err != nil {
				errs++
			}
			if elapsed < 0 {
				t.Errorf("cell %d: negative duration %v", i, elapsed)
			}
		},
	}, func(i int) (int, error) { return i, nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 50 || errs != 0 {
		t.Fatalf("got %d callbacks, %d errors", len(got), errs)
	}
	sort.Ints(got)
	for i, v := range got {
		if v != i {
			t.Fatalf("callback indices %v", got)
		}
	}
}

// TestBatchAndStartHooks: OnBatch fires once with the cell and worker
// counts before any cell runs; OnCellStart fires once per executed cell,
// serialized with OnCell so start/finish bookkeeping needs no locks of
// its own.
func TestBatchAndStartHooks(t *testing.T) {
	for _, par := range []int{1, 4} {
		var batches, started, finished int
		inflight := map[int]bool{}
		err := Run(30, Options{
			Parallelism: par,
			OnBatch: func(cells, workers int) {
				batches++
				if cells != 30 {
					t.Errorf("par=%d: OnBatch cells=%d, want 30", par, cells)
				}
				if workers != par {
					t.Errorf("par=%d: OnBatch workers=%d", par, workers)
				}
				if started != 0 {
					t.Errorf("par=%d: OnBatch after %d starts", par, started)
				}
			},
			OnCellStart: func(i int) {
				started++
				inflight[i] = true
			},
			OnCell: func(i int, err error, elapsed time.Duration) {
				finished++
				if !inflight[i] {
					t.Errorf("par=%d: cell %d finished without starting", par, i)
				}
				delete(inflight, i)
			},
		}, func(i int) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		if batches != 1 || started != 30 || finished != 30 || len(inflight) != 0 {
			t.Fatalf("par=%d: batches=%d started=%d finished=%d inflight=%d",
				par, batches, started, finished, len(inflight))
		}
	}
}

func TestWorkersClamp(t *testing.T) {
	cases := []struct {
		par, cells, min, max int
	}{
		{1, 10, 1, 1},
		{4, 2, 2, 2},
		{4, 10, 4, 4},
		{0, 10, 1, 10}, // GOMAXPROCS-dependent, but bounded by cells
		{-3, 1, 1, 1},
	}
	for _, c := range cases {
		w := Options{Parallelism: c.par}.Workers(c.cells)
		if w < c.min || w > c.max {
			t.Errorf("Workers(par=%d, cells=%d) = %d, want in [%d, %d]",
				c.par, c.cells, w, c.min, c.max)
		}
	}
}

// TestSerialEqualsParallel: results collected through the pool are
// identical to the serial loop for a deterministic per-cell function.
func TestSerialEqualsParallel(t *testing.T) {
	fn := func(i int) (uint64, error) {
		// Deterministic per-cell state: a tiny PRNG owned by the cell.
		x := uint64(i)*0x9E3779B97F4A7C15 + 1
		for k := 0; k < 1000; k++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		return x, nil
	}
	serial, err := Map(64, Options{Parallelism: 1}, fn)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Map(64, Options{Parallelism: 6}, fn)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("cell %d: serial %d != parallel %d", i, serial[i], parallel[i])
		}
	}
}

// TestConcurrentCellsUnderRace exercises many goroutines mutating
// cell-owned state through the pool with -race enabled.
func TestConcurrentCellsUnderRace(t *testing.T) {
	var mu sync.Mutex
	total := 0
	err := Run(200, Options{Parallelism: 8}, func(i int) error {
		mu.Lock()
		total += i
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := 199 * 200 / 2; total != want {
		t.Fatalf("total = %d, want %d", total, want)
	}
}
