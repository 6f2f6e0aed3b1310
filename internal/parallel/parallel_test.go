package parallel

import (
	"bytes"
	"cmp"
	"fmt"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
)

// goid returns the calling goroutine's id, parsed from its stack header
// ("goroutine 7 [running]:").
func goid() uint64 {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	buf = bytes.TrimPrefix(buf, []byte("goroutine "))
	id, err := strconv.ParseUint(string(buf[:bytes.IndexByte(buf, ' ')]), 10, 64)
	if err != nil {
		panic(err)
	}
	return id
}

// TestDoBoundsConcurrency: however many calls there are, no more than
// workers of them are ever running at once, and every call runs exactly
// once.
func TestDoBoundsConcurrency(t *testing.T) {
	for _, workers := range []int{2, 3, 8} {
		const n = 200
		var active, high atomic.Int64
		calls := make([]atomic.Int32, n)
		errs := Do(n, workers, func(i int) error {
			now := active.Add(1)
			for {
				h := high.Load()
				if now <= h || high.CompareAndSwap(h, now) {
					break
				}
			}
			runtime.Gosched()
			calls[i].Add(1)
			active.Add(-1)
			return nil
		})
		if len(errs) != n {
			t.Fatalf("workers=%d: %d errors returned, want %d", workers, len(errs), n)
		}
		if h := high.Load(); h < 1 || h > int64(workers) {
			t.Fatalf("workers=%d: %d calls ran at once", workers, h)
		}
		for i := range calls {
			if c := calls[i].Load(); c != 1 {
				t.Fatalf("workers=%d: call %d ran %d times", workers, i, c)
			}
		}
	}
}

// TestDoErrorsIndexed: each call's error lands at its own index, whatever
// order the calls finish in, so a caller reports the lowest failing index.
func TestDoErrorsIndexed(t *testing.T) {
	for _, workers := range []int{1, 4} {
		errs := Do(10, workers, func(i int) error {
			if i == 3 || i == 7 {
				return fmt.Errorf("call %d", i)
			}
			return nil
		})
		for i, err := range errs {
			want := i == 3 || i == 7
			if (err != nil) != want || (want && err.Error() != fmt.Sprintf("call %d", i)) {
				t.Fatalf("workers=%d: errs[%d] = %v", workers, i, err)
			}
		}
		if first := cmp.Or(errs...); first == nil || first.Error() != "call 3" {
			t.Fatalf("workers=%d: lowest failing call reported as %v", workers, first)
		}
	}
}

// TestDoSerialOnCaller: a width of one or less, or a single call, runs
// every call on the calling goroutine in ascending order.
func TestDoSerialOnCaller(t *testing.T) {
	caller := goid()
	for _, c := range []struct{ n, workers int }{{5, 1}, {5, 0}, {5, -3}, {1, 4}, {0, 4}} {
		var order []int
		errs := Do(c.n, c.workers, func(i int) error {
			if id := goid(); id != caller {
				return fmt.Errorf("call %d ran on goroutine %d, caller is %d", i, id, caller)
			}
			order = append(order, i)
			return nil
		})
		for _, err := range errs {
			if err != nil {
				t.Fatalf("n=%d workers=%d: %v", c.n, c.workers, err)
			}
		}
		if len(errs) != c.n || len(order) != c.n {
			t.Fatalf("n=%d workers=%d: %d errors, %d calls", c.n, c.workers, len(errs), len(order))
		}
		for i, got := range order {
			if got != i {
				t.Fatalf("n=%d workers=%d: call order %v", c.n, c.workers, order)
			}
		}
	}
}
