package sweep

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/runerr"
)

// TestGridMemoizesSetupPerKey checks that cells sharing a key share one
// setup computation, across both the serial and the parallel pool.
func TestGridMemoizesSetupPerKey(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers-%d", workers), func(t *testing.T) {
			var setups atomic.Int64
			n := 24
			results, err := Grid(n, workers,
				func(i int) Key { return Key(fmt.Sprintf("k%d", i%3)) },
				func(i int) (int, error) {
					setups.Add(1)
					return (i % 3) * 100, nil
				},
				func(i, _ int, a int) (int, error) { return a + i, nil },
			)
			if err != nil {
				t.Fatal(err)
			}
			if got := setups.Load(); got != 3 {
				t.Errorf("setup ran %d times, want 3", got)
			}
			for i, r := range results {
				if want := (i%3)*100 + i; r != want {
					t.Errorf("results[%d] = %d, want %d", i, r, want)
				}
			}
		})
	}
}

// TestGridParallelMatchesSerial is the scheduling-independence
// property at the package level: identical results regardless of
// worker count.
func TestGridParallelMatchesSerial(t *testing.T) {
	mk := func(workers int) []int {
		res, err := Grid(50, workers,
			func(i int) Key { return Key(fmt.Sprintf("g%d", i%7)) },
			func(i int) (int, error) { return i % 7, nil },
			func(i, _ int, a int) (int, error) { return a*1000 + i*i, nil },
		)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := mk(1)
	for _, w := range []int{2, 3, 8} {
		par := mk(w)
		for i := range serial {
			if serial[i] != par[i] {
				t.Fatalf("workers=%d: results[%d] = %d, serial %d", w, i, par[i], serial[i])
			}
		}
	}
}

// TestGridEmptyKeySkipsSetup checks the no-setup path used by
// baseline/online cells.
func TestGridEmptyKeySkipsSetup(t *testing.T) {
	var setups atomic.Int64
	results, err := Grid(5, 2,
		func(i int) Key { return "" },
		func(i int) (string, error) {
			setups.Add(1)
			return "boom", nil
		},
		func(i, _ int, a string) (string, error) {
			if a != "" {
				return "", fmt.Errorf("got artifact %q for empty key", a)
			}
			return fmt.Sprintf("r%d", i), nil
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	if setups.Load() != 0 {
		t.Errorf("setup ran %d times for empty keys, want 0", setups.Load())
	}
	if results[3] != "r3" {
		t.Errorf("results[3] = %q", results[3])
	}

	// A nil keyOf means no cell has a setup stage, so setup may be nil.
	results, err = Grid(5, 2, nil, nil, func(i, _ int, a string) (string, error) {
		return fmt.Sprintf("r%d", i), nil
	})
	if err != nil || results[4] != "r4" {
		t.Errorf("nil keyOf: results = %q, err = %v", results, err)
	}
}

// TestGridReportsLowestFailedCell checks deterministic error selection
// and that healthy cells still complete.
func TestGridReportsLowestFailedCell(t *testing.T) {
	errLow, errHigh := errors.New("low"), errors.New("high")
	for _, workers := range []int{1, 4} {
		results, err := Grid(10, workers,
			func(i int) Key { return Key(fmt.Sprint(i)) },
			func(i int) (int, error) { return i, nil },
			func(i, _ int, a int) (int, error) {
				switch i {
				case 3:
					return 0, errLow
				case 7:
					return 0, errHigh
				}
				return a, nil
			},
		)
		if !errors.Is(err, errLow) {
			t.Errorf("workers=%d: err = %v, want lowest-index error %v", workers, err, errLow)
		}
		if results[9] != 9 {
			t.Errorf("workers=%d: healthy cell lost: results[9] = %d", workers, results[9])
		}
	}
}

// TestGridWorkerIDs checks the observability contract of the worker
// index handed to point: always 0 on the serial path, within the pool
// bounds on the parallel path.
func TestGridWorkerIDs(t *testing.T) {
	collect := func(workers int) []int {
		ids := make([]int, 20)
		_, err := Grid(20, workers,
			func(i int) Key { return "" },
			func(i int) (int, error) { return 0, nil },
			func(i, worker int, a int) (int, error) {
				ids[i] = worker
				return 0, nil
			},
		)
		if err != nil {
			t.Fatal(err)
		}
		return ids
	}
	for i, id := range collect(1) {
		if id != 0 {
			t.Errorf("serial: cell %d ran on worker %d, want 0", i, id)
		}
	}
	for i, id := range collect(4) {
		if id < 0 || id >= 4 {
			t.Errorf("parallel: cell %d reports worker %d, want 0..3", i, id)
		}
	}
}

// TestGridJoinsAllCellErrors checks the aggregation contract: every
// failed cell's message survives in the joined error (not just the
// lowest index), in cell order.
func TestGridJoinsAllCellErrors(t *testing.T) {
	fails := map[int]error{2: errors.New("two fell over"), 5: errors.New("five fell over"), 8: errors.New("eight fell over")}
	for _, workers := range []int{1, 4} {
		_, err := Grid(10, workers,
			func(i int) Key { return Key(fmt.Sprint(i)) },
			func(i int) (int, error) { return i, nil },
			func(i, _ int, a int) (int, error) { return a, fails[i] },
		)
		if err == nil {
			t.Fatalf("workers=%d: joined error is nil", workers)
		}
		for i, cellErr := range fails {
			if !errors.Is(err, cellErr) {
				t.Errorf("workers=%d: cell %d's error lost from the join: %v", workers, i, err)
			}
		}
		msg := err.Error()
		if strings.Index(msg, "two") > strings.Index(msg, "five") || strings.Index(msg, "five") > strings.Index(msg, "eight") {
			t.Errorf("workers=%d: joined errors out of cell order:\n%s", workers, msg)
		}
	}
}

// TestChaosGridRecoversCellPanic checks panic isolation: a panicking
// cell fails only itself, captured as an ErrCellPanic with the cell
// index and stack, and every other cell's result is bit-identical to
// a clean run.
func TestChaosGridRecoversCellPanic(t *testing.T) {
	mk := func(panicAt int) ([]int, []error) {
		return GridCtx(context.Background(), 12, 3,
			func(i int) Key { return Key(fmt.Sprint(i % 4)) },
			func(i int) (int, error) { return (i % 4) * 10, nil },
			func(i, _ int, a int) (int, error) {
				if i == panicAt {
					panic("cell exploded")
				}
				return a + i, nil
			},
		)
	}
	clean, cleanErrs := mk(-1)
	for i, err := range cleanErrs {
		if err != nil {
			t.Fatalf("clean run: cell %d failed: %v", i, err)
		}
	}
	got, errs := mk(7)
	var cp *CellPanic
	if !errors.As(errs[7], &cp) || !errors.Is(errs[7], ErrCellPanic) {
		t.Fatalf("cell 7 error = %v, want a CellPanic wrapping ErrCellPanic", errs[7])
	}
	if cp.Cell != 7 || len(cp.Stack) == 0 || !strings.Contains(fmt.Sprint(cp.Value), "exploded") {
		t.Errorf("CellPanic = cell %d value %v stack %d bytes", cp.Cell, cp.Value, len(cp.Stack))
	}
	for i := range clean {
		if i == 7 {
			continue
		}
		if errs[i] != nil || got[i] != clean[i] {
			t.Errorf("surviving cell %d: result %d err %v, want %d from the clean run", i, got[i], errs[i], clean[i])
		}
	}
}

// TestChaosGridRecoversSetupPanic checks that a shared-setup panic
// fails every sharer with one identical CellPanic carrying Cell == -1
// (the claiming cell is scheduling-dependent and must not leak into
// the error).
func TestChaosGridRecoversSetupPanic(t *testing.T) {
	_, errs := GridCtx(context.Background(), 6, 3,
		func(i int) Key {
			if i%2 == 0 {
				return "bad"
			}
			return "good"
		},
		func(i int) (int, error) {
			if i%2 == 0 {
				panic("setup exploded")
			}
			return 1, nil
		},
		func(i, _ int, a int) (int, error) { return a, nil },
	)
	for i := 0; i < 6; i += 2 {
		var cp *CellPanic
		if !errors.As(errs[i], &cp) {
			t.Fatalf("sharer cell %d error = %v, want CellPanic", i, errs[i])
		}
		if cp.Cell != -1 {
			t.Errorf("setup panic records cell %d, want -1", cp.Cell)
		}
		if errs[i] != errs[0] {
			t.Errorf("sharer cell %d carries a different error instance than cell 0", i)
		}
	}
	for i := 1; i < 6; i += 2 {
		if errs[i] != nil {
			t.Errorf("good-key cell %d failed: %v", i, errs[i])
		}
	}
}

// TestChaosGridCancel checks prompt cancellation: once the context is
// canceled, unstarted cells fail with ErrCanceled and already-
// completed results survive. The serial path makes the cut
// deterministic.
func TestChaosGridCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	results, errs := GridCtx(ctx, 8, 1,
		func(i int) Key { return "" },
		func(i int) (int, error) { return 0, nil },
		func(i, _ int, a int) (int, error) {
			if i == 2 {
				cancel()
			}
			return i * 11, nil
		},
	)
	for i := 0; i <= 2; i++ {
		if errs[i] != nil || results[i] != i*11 {
			t.Errorf("pre-cancel cell %d: result %d err %v", i, results[i], errs[i])
		}
	}
	for i := 3; i < 8; i++ {
		if !errors.Is(errs[i], runerr.ErrCanceled) {
			t.Errorf("post-cancel cell %d error = %v, want ErrCanceled", i, errs[i])
		}
		if !errors.Is(errs[i], context.Canceled) {
			t.Errorf("post-cancel cell %d error should keep the context cause, got %v", i, errs[i])
		}
	}
}

// TestGridSetupErrorFailsAllSharers checks that a failed shared setup
// fails every cell that claimed its key.
func TestGridSetupErrorFailsAllSharers(t *testing.T) {
	boom := errors.New("setup boom")
	var points atomic.Int64
	_, err := Grid(6, 3,
		func(i int) Key {
			if i%2 == 0 {
				return "bad"
			}
			return "good"
		},
		func(i int) (int, error) {
			if i%2 == 0 {
				return 0, boom
			}
			return 1, nil
		},
		func(i, _ int, a int) (int, error) {
			points.Add(1)
			return a, nil
		},
	)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if got := points.Load(); got != 3 {
		t.Errorf("point ran %d times, want 3 (only the good-key cells)", got)
	}
}
