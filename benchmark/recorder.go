package main

import (
	"math/bits"
	"sync"
	"time"
)

// hist is a latency histogram over fixed log-scale buckets: every power
// of two is split into 64 equal sub-buckets, so a bucket is at most
// 1.6 % wide and recording never allocates. Values are nanoseconds.
// Quantiles interpolate inside the bucket by rank, so two runs that land
// in the same bucket still report different, continuous values.
type hist struct {
	n      uint64
	max    uint64
	counts [nBuckets]uint32
}

const (
	subBits  = 6
	nBuckets = (64 - subBits + 1) << subBits
)

func bucketOf(v uint64) int {
	if v < 1<<subBits {
		return int(v)
	}
	e := bits.Len64(v) - 1
	return (e-subBits+1)<<subBits + int((v>>(e-subBits))&(1<<subBits-1))
}

// bucketLow is the smallest value that lands in bucket i.
func bucketLow(i int) uint64 {
	if i < 1<<subBits {
		return uint64(i)
	}
	e := i>>subBits + subBits - 1
	return (1<<subBits + uint64(i&(1<<subBits-1))) << (e - subBits)
}

func (h *hist) record(d time.Duration) {
	v := uint64(max(d, 0))
	h.n++
	h.max = max(h.max, v)
	h.counts[bucketOf(v)]++
}

func (h *hist) merge(o *hist) {
	h.n += o.n
	h.max = max(h.max, o.max)
	for i, c := range o.counts {
		h.counts[i] += c
	}
}

// quantile returns the q-quantile in nanoseconds (0 when empty).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo := float64(bucketLow(i))
			hi := min(float64(bucketLow(i+1)), float64(h.max)+1)
			return lo + (rank-cum)/float64(c)*(hi-lo)
		}
		cum += float64(c)
	}
	return float64(h.max)
}

func (h *hist) us(q float64) float64 { return h.quantile(q) / 1e3 }

// numSlices is how many equal slices the measured interval is cut into;
// each timed end-to-end metric is the median of its per-slice values, so
// one stall (a GC cycle, a checkpoint) moves one slice, not the result.
const numSlices = 10

// recorder files latency samples into the slices of one measured
// interval by the time the operation was due (open loop) or issued
// (closed loop); its latency runs from that time to its completion.
// Operations due outside the interval (warm-up) are dropped. Safe for
// concurrent use.
type recorder struct {
	mu       sync.Mutex
	start    time.Time
	sliceLen time.Duration
	slices   [numSlices]hist
	lastDone [numSlices]time.Time
}

func newRecorder(start time.Time, measure time.Duration) *recorder {
	return &recorder{start: start, sliceLen: measure / numSlices}
}

func (r *recorder) record(due, done time.Time) {
	off := due.Sub(r.start)
	if off < 0 {
		return
	}
	i := int(off / r.sliceLen)
	if i >= numSlices {
		return
	}
	r.mu.Lock()
	r.slices[i].record(done.Sub(due))
	if done.After(r.lastDone[i]) {
		r.lastDone[i] = done
	}
	r.mu.Unlock()
}

// all merges the slices into the whole interval's histogram.
func (r *recorder) all() *hist {
	var h hist
	for i := range r.slices {
		h.merge(&r.slices[i])
	}
	return &h
}

// perSlice evaluates f on every slice.
func (r *recorder) perSlice(f func(h *hist) float64) []float64 {
	out := make([]float64, numSlices)
	for i := range r.slices {
		out[i] = f(&r.slices[i])
	}
	return out
}

// rates is each slice's operations per second: the operations due in
// the slice over the time from the slice's start until the last of them
// completed. A closed loop's rate is its throughput; an open loop's is
// the offered rate for as long as the system keeps up, and falls once a
// backlog pushes completions past the slice.
func (r *recorder) rates() []float64 {
	out := make([]float64, numSlices)
	for i := range r.slices {
		from := r.start.Add(time.Duration(i) * r.sliceLen)
		if r.lastDone[i].After(from) {
			out[i] = float64(r.slices[i].n) / r.lastDone[i].Sub(from).Seconds()
		}
	}
	return out
}
