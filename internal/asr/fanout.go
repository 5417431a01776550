package asr

import (
	"fmt"
	"sync"
)

// FanOut runs fn over items split into at most workers contiguous,
// near-equal chunks and returns the chunks' results in chunk order, so
// whatever the caller merges out of them never depends on scheduling.
// It is Parallel over the chunks: with workers ≤ 1 or fewer than two
// items fn runs once, over all of items, on the caller's goroutine.
func FanOut[T, R any](kind string, workers int, items []T, fn func(chunk []T) (R, error)) ([]R, error) {
	workers = max(1, min(workers, len(items)))
	base, rem := len(items)/workers, len(items)%workers
	return Parallel(kind, workers, func(w int) (R, error) {
		lo := w*base + min(w, rem)
		hi := lo + base
		if w < rem {
			hi++
		}
		return fn(items[lo:hi])
	})
}

// Parallel runs fn(0) … fn(workers-1) and returns their results in that
// order. It is the one worker pool of the read path: the Manager's
// exhaustive-search fallback and the query engine's nested loop go
// through it, the engine directly when its workers share a walk of a
// collection (gom.Members) instead of splitting a copy — so the caller
// bounds workers by the work there is.
//
// With workers ≤ 1 fn(0) runs once, on the caller's goroutine — no
// goroutine is started and no lock taken. Otherwise every call gets its
// own goroutine. A panic in one is turned into an error naming kind, so
// a defect in one query does not take the process down; of several
// failing calls the lowest-numbered one's error is returned. Parallel
// returns only after every goroutine it started has finished. On
// success there is at least one result.
func Parallel[R any](kind string, workers int, fn func(w int) (R, error)) ([]R, error) {
	if workers <= 1 {
		r, err := fn(0)
		if err != nil {
			return nil, err
		}
		return []R{r}, nil
	}
	results := make([]R, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs[w] = fmt.Errorf("%s worker panicked: %v", kind, r)
				}
			}()
			results[w], errs[w] = fn(w)
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}
