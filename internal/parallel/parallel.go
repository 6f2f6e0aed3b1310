// Package parallel is the library's one fan-out: every concurrent section
// above the disk array's per-disk writers (internal/disk's AsyncFileStore)
// runs through Do.
package parallel

import (
	"sync"
	"sync/atomic"
)

// Do calls fn(i) for every i in [0, n), at most workers calls at a time,
// started in ascending i, and returns their errors indexed by i. It returns
// once every call has returned.
//
// A width of one or less — zero and negative widths included — runs every
// call on the calling goroutine, in ascending i, as does n ≤ 1. This is the
// one meaning of workers ≤ 0 in the library: serial.
func Do(n, workers int, fn func(i int) error) []error {
	errs := make([]error, n)
	workers = min(workers, n)
	if workers <= 1 {
		for i := range n {
			errs[i] = fn(i)
		}
		return errs
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	return errs
}
