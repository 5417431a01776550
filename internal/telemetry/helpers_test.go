package telemetry

// Helpers the package's tests use; no product code needs them.

// Snapshot returns every sample the registry would export, keyed by
// series name (histograms contribute `name_count` and `name_sum`).
func (r *Registry) Snapshot() map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := map[string]float64{}
	for name, c := range r.counters {
		out[name] = float64(c.Value())
	}
	for name, g := range r.gauges {
		out[name] = g.Value()
	}
	for name, h := range r.hists {
		base, labels := splitName(name)
		out[series(base+"_count", labels, "")] = float64(h.Count())
		out[series(base+"_sum", labels, "")] = h.Sum()
	}
	return out
}

// Count returns the number of observations: the sum of the buckets.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}
