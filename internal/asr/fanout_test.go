package asr

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// goroutineID identifies the calling goroutine ("goroutine 17 [running]…").
func goroutineID() string {
	buf := make([]byte, 64)
	return strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
}

// TestFanOutMatchesModel: for every item count and worker count the
// chunks, concatenated in result order, are exactly the items in item
// order; no chunk is empty once work is split; and workers ≤ 1 (or
// fewer than two items) runs once on the caller's goroutine.
func TestFanOutMatchesModel(t *testing.T) {
	caller := goroutineID()
	for n := 0; n <= 17; n++ {
		items := make([]int, n)
		for i := range items {
			items[i] = i
		}
		for workers := 0; workers <= 9; workers++ {
			var calls, onCaller atomic.Int32
			chunks, err := FanOut("test", workers, items, func(chunk []int) ([]int, error) {
				calls.Add(1)
				if goroutineID() == caller {
					onCaller.Add(1)
				}
				return chunk, nil
			})
			if err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, workers, err)
			}
			wantChunks := max(1, min(workers, n))
			if len(chunks) != wantChunks || int(calls.Load()) != wantChunks {
				t.Fatalf("n=%d workers=%d: %d chunks from %d calls, want %d", n, workers, len(chunks), calls.Load(), wantChunks)
			}
			next := 0
			for c, chunk := range chunks {
				if len(chunk) == 0 && n > 0 {
					t.Errorf("n=%d workers=%d: chunk %d is empty", n, workers, c)
				}
				if len(chunk) > (n+wantChunks-1)/wantChunks {
					t.Errorf("n=%d workers=%d: chunk %d holds %d items, not near-equal", n, workers, c, len(chunk))
				}
				for _, it := range chunk {
					if it != next {
						t.Fatalf("n=%d workers=%d: chunk %d yields item %d, want %d", n, workers, c, it, next)
					}
					next++
				}
			}
			if next != n {
				t.Fatalf("n=%d workers=%d: saw %d items", n, workers, next)
			}
			if inline := wantChunks == 1; inline != (onCaller.Load() == 1) {
				t.Errorf("n=%d workers=%d: %d calls ran on the caller's goroutine", n, workers, onCaller.Load())
			}
		}
	}
}

// TestFanOutFailures: a panicking chunk becomes an error naming the
// worker kind, the lowest-numbered failing chunk wins whatever the
// scheduling, and FanOut has waited for every goroutine it started
// before it returns an error.
func TestFanOutFailures(t *testing.T) {
	items := []int{0, 1, 2, 3, 4, 5, 6, 7}

	_, err := FanOut("asr: probe", 4, items, func(chunk []int) (int, error) {
		if chunk[0] == 4 {
			panic("boom")
		}
		return 0, nil
	})
	if err == nil || err.Error() != "asr: probe worker panicked: boom" {
		t.Fatalf("panicking chunk: err = %v", err)
	}

	for round := 0; round < 50; round++ {
		before := runtime.NumGoroutine()
		var finished atomic.Int32
		release := make(chan struct{})
		_, err := FanOut("test", 4, items, func(chunk []int) (int, error) {
			defer finished.Add(1)
			switch chunk[0] {
			case 2: // chunk 1 fails last …
				<-release
				return 0, errors.New("chunk 1")
			case 6: // … after chunk 3 already has
				defer close(release)
				return 0, fmt.Errorf("chunk 3")
			}
			return 0, nil
		})
		if err == nil || err.Error() != "chunk 1" {
			t.Fatalf("two failing chunks: err = %v, want chunk 1's", err)
		}
		if finished.Load() != 4 {
			t.Fatalf("FanOut returned with %d of 4 chunks finished", finished.Load())
		}
		// Every worker has returned from fn and signalled the wait
		// group; its goroutine may still be on its way out.
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Fatalf("%d goroutines before, %d after an error", before, after)
		}
	}
}
