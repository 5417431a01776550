package asr

import (
	"fmt"
	"sync"
)

// FanOut runs fn over items split into at most workers contiguous,
// near-equal chunks and returns the chunks' results in chunk order, so
// whatever the caller merges out of them never depends on scheduling.
// It is the one worker pool of the read path: the Manager's
// exhaustive-search fallback and the query engine's nested loop go
// through it.
//
// With workers ≤ 1 or fewer than two items fn runs once, over all of
// items, on the caller's goroutine — no goroutine is started and no
// lock taken. Otherwise every chunk gets its own goroutine. A panic in
// one is turned into an error naming kind, so a defect in one query
// does not take the process down; of several failing chunks the
// lowest-numbered one's error is returned. FanOut returns only after
// every goroutine it started has finished. On success there is at
// least one result.
func FanOut[T, R any](kind string, workers int, items []T, fn func(chunk []T) (R, error)) ([]R, error) {
	if workers > len(items) {
		workers = len(items)
	}
	if workers <= 1 {
		r, err := fn(items)
		if err != nil {
			return nil, err
		}
		return []R{r}, nil
	}
	results := make([]R, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	base, rem := len(items)/workers, len(items)%workers
	lo := 0
	for w := 0; w < workers; w++ {
		hi := lo + base
		if w < rem {
			hi++
		}
		wg.Add(1)
		go func(w int, chunk []T) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs[w] = fmt.Errorf("%s worker panicked: %v", kind, r)
				}
			}()
			results[w], errs[w] = fn(chunk)
		}(w, items[lo:hi])
		lo = hi
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}
