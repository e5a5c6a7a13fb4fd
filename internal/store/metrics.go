package store

import (
	"time"

	"repro/internal/obs"
)

// Metrics is the store's optional compaction instrumentation. Counters
// (merges, purges, pairs merged) are not here — the store keeps those
// itself (Stats) and the facade bridges them to the registry, so /stats
// and /metrics read the same atomics.
type Metrics struct {
	// MergeSeconds times one run merge (the off-lock merge plus the
	// run-list swap).
	MergeSeconds *obs.Histogram
}

// NewMetrics registers the store's duration instrument in reg under
// slider_compaction_seconds{op="merge"}.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		MergeSeconds: reg.Histogram("slider_compaction_seconds",
			"Store compaction operation durations by op.", nil, "op", "merge"),
	}
}

// SetMetrics attaches (or replaces) the store's instrumentation. Safe
// to call at any time; nil detaches.
func (st *Store) SetMetrics(m *Metrics) { st.metrics.Store(m) }

// CompactionBacklog returns how many predicates are queued for
// background compaction — the live compaction-debt gauge.
func (st *Store) CompactionBacklog() int {
	st.comp.mu.Lock()
	defer st.comp.mu.Unlock()
	return len(st.comp.queue)
}

// CompactionErr returns the sticky error recorded if a background
// compaction pass ever panicked. The store keeps serving (the panic is
// contained to the worker goroutine), but merging then falls to the
// writers, which merge a predicate down themselves at the run bound —
// the serving layer surfaces this as a degraded health state.
func (st *Store) CompactionErr() error {
	st.comp.mu.Lock()
	defer st.comp.mu.Unlock()
	return st.comp.err
}

// CompactionErrSince returns when CompactionErr's error was recorded
// (zero when healthy) — the Since a health endpoint reports for a
// compaction-degraded store.
func (st *Store) CompactionErrSince() time.Time {
	st.comp.mu.Lock()
	defer st.comp.mu.Unlock()
	return st.comp.errSince
}
