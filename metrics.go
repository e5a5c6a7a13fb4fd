// Metrics: the reasoner's flight recorder. Every Reasoner owns an
// obs.Registry; the hot paths (ingest, checkpointing, view refresh,
// retraction, WAL, compaction, query planning) record into lock-free
// histograms and counters registered there, and cumulative counters the
// subsystems already keep (engine and store stats) are bridged in as
// functions reading the very same atomics — so /stats and /metrics can
// never disagree. The serving layer exposes the registry at GET
// /metrics in Prometheus text format.
package slider

import (
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/query"
)

// Build identifies the running binary: the main module version, the Go
// toolchain that compiled it and the VCS revision, as stamped by the
// linker. Fields read "unknown" when the binary was built outside
// module/VCS context (go test, plain go build in a dirty tree).
type Build struct {
	Version   string `json:"version"`
	GoVersion string `json:"go_version"`
	Revision  string `json:"revision"`
}

// BuildInfo returns the binary's build identification, read once from
// runtime/debug. The serving layer surfaces it as the
// slider_build_info gauge and the /stats build block, so a scrape can
// tell which binary answered.
var BuildInfo = sync.OnceValue(func() Build {
	b := Build{Version: "unknown", GoVersion: runtime.Version(), Revision: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		if bi.Main.Version != "" && bi.Main.Version != "(devel)" {
			b.Version = bi.Main.Version
		}
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				b.Revision = s.Value
			}
		}
	}
	return b
})

// Metrics returns the reasoner's metrics registry. The serving layer
// scrapes it; applications may register their own instruments or
// render it with WriteText.
func (r *Reasoner) Metrics() *obs.Registry { return r.obs.reg }

// rmetrics holds the facade-level instruments. One per Reasoner,
// registered in newReasoner (and openDurable for the durable extras).
type rmetrics struct {
	reg *obs.Registry

	// Ingest: one observation per batch applyAssert hands over — the
	// synchronous part of ingestion (store insertion plus routing; rule
	// execution is asynchronous and shows up in the engine bridges
	// instead).
	ingestSeconds *obs.Histogram
	ingestBatch   *obs.Histogram
	ingestBatches *obs.Counter
	ingestTriples *obs.Counter
	// Group commit: drains run by a writer-lock holder (one WAL append
	// each on a durable reasoner), and batches that shared their drain
	// with at least one other.
	ingestFlushes   *obs.Counter
	ingestCoalesced *obs.Counter

	// Checkpoint phases: mark (writers paused), stream (lock-free
	// serialisation), commit (manifest rename + prune).
	ckptMark   *obs.Histogram
	ckptStream *obs.Histogram
	ckptCommit *obs.Histogram
	ckptTotal  *obs.Counter

	// Read-session snapshot refresh: the quiesce-and-freeze latency.
	viewRefresh *obs.Histogram

	// Retraction phases: prepare (concurrent suspect analysis over a
	// frozen view) vs apply (the exclusive validate-and-apply window —
	// the writer pause a retraction inflicts).
	retractPrepare *obs.Histogram
	retractApply   *obs.Histogram
	retractTotal   *obs.Counter

	// Query engine instruments, shared by Select/SelectQuery and every
	// View session (the serving layer's query path included).
	query *query.Metrics
}

// newRMetrics registers the facade instruments in reg.
func newRMetrics(reg *obs.Registry) *rmetrics {
	const ckptName = "slider_checkpoint_seconds"
	const ckptHelp = "Checkpoint phase durations: mark pauses writers, stream and commit run lock-free."
	const retrName = "slider_retract_seconds"
	const retrHelp = "Retraction phase durations: prepare runs concurrently, apply holds the exclusive writer window."
	return &rmetrics{
		reg: reg,
		ingestSeconds: reg.Histogram("slider_ingest_seconds",
			"Synchronous ingest latency per batch: store insertion and rule routing (inference is asynchronous).", nil),
		ingestBatch: reg.Histogram("slider_ingest_batch_triples",
			"Triples per ingested batch.", obs.SizeBuckets),
		ingestBatches: reg.Counter("slider_ingest_batches_total",
			"Ingested batches."),
		ingestTriples: reg.Counter("slider_ingest_triples_total",
			"Triples handed to the engine (new and duplicate)."),
		ingestFlushes: reg.Counter("slider_ingest_flushes_total",
			"Ingest drains run by the writer-lock holder (one WAL append each on a durable reasoner)."),
		ingestCoalesced: reg.Counter("slider_ingest_coalesced_batches_total",
			"Ingested batches that shared their drain with at least one other."),
		ckptMark:   reg.Histogram(ckptName, ckptHelp, nil, "phase", "mark"),
		ckptStream: reg.Histogram(ckptName, ckptHelp, nil, "phase", "stream"),
		ckptCommit: reg.Histogram(ckptName, ckptHelp, nil, "phase", "commit"),
		ckptTotal: reg.Counter("slider_checkpoints_total",
			"Completed checkpoints."),
		viewRefresh: reg.Histogram("slider_view_refresh_seconds",
			"Read-session snapshot refresh latency (quiesce, freeze and install).", nil),
		retractPrepare: reg.Histogram(retrName, retrHelp, nil, "phase", "prepare"),
		retractApply:   reg.Histogram(retrName, retrHelp, nil, "phase", "apply"),
		retractTotal: reg.Counter("slider_retractions_total",
			"Completed retraction passes."),
		query: query.NewMetrics(reg),
	}
}

// registerBridges installs the function-backed instruments that read
// state the subsystems already maintain: engine counters, store
// composition gauges, compaction backlog and snapshot staleness. Called
// once r is fully constructed (the closures capture r).
func (r *Reasoner) registerBridges() {
	reg := r.obs.reg
	reg.CounterFunc("slider_engine_input_total",
		"Explicit triples accepted by the engine (new to the store).",
		func() float64 { return float64(r.engine.Stats().Input) })
	reg.CounterFunc("slider_engine_input_duplicates_total",
		"Explicit triples dropped as already known.",
		func() float64 { return float64(r.engine.Stats().DuplicateInput) })
	reg.CounterFunc("slider_engine_inferred_total",
		"Distinct inferred triples added to the store.",
		func() float64 { return float64(r.engine.Stats().Inferred) })
	reg.CounterFunc("slider_engine_duplicates_total",
		"Derivations dropped because the triple was already present.",
		func() float64 { return float64(r.engine.Stats().Duplicates) })
	reg.CounterFunc("slider_engine_executions_total",
		"Rule-module executions.",
		func() float64 { return float64(r.engine.Stats().Executions) })

	reg.GaugeFunc("slider_store_triples",
		"Distinct triples in the materialised store (explicit plus inferred).",
		func() float64 { return float64(r.store.Len()) })
	reg.GaugeFunc("slider_store_runs",
		"Immutable sorted runs across all store partitions.",
		func() float64 { return float64(r.store.Stats().Runs) })
	reg.GaugeFunc("slider_store_overlay_pairs",
		"Pairs in store runs not yet merged into their partition's oldest run (compaction debt).",
		func() float64 { return float64(r.store.Stats().OverlayPairs) })
	reg.GaugeFunc("slider_store_tombstones",
		"Pairs in delete-marker runs awaiting a merge.",
		func() float64 { return float64(r.store.Stats().Tombstones) })
	reg.GaugeFunc("slider_compaction_backlog",
		"Partitions queued for background compaction.",
		func() float64 { return float64(r.store.CompactionBacklog()) })
	reg.CounterFunc("slider_compaction_merges_total",
		"Run merges.",
		func() float64 { return float64(r.store.Stats().Compaction.Merges) })
	reg.CounterFunc("slider_compaction_purges_total",
		"Run merges that took delete markers in.",
		func() float64 { return float64(r.store.Stats().Compaction.Purges) })

	reg.GaugeFunc("slider_view_staleness_seconds",
		"Age of the shared read-session snapshot (zero before the first capture).",
		func() float64 { return r.ViewStaleness().Seconds() })

	b := BuildInfo()
	reg.GaugeFunc("slider_build_info",
		"Build identification; constant 1 — the labels carry the payload.",
		func() float64 { return 1 },
		"version", b.Version, "goversion", b.GoVersion, "revision", b.Revision)
}

// ViewStaleness reports how old the cached read-session snapshot is —
// the live gauge behind slider_view_staleness_seconds and the serving
// layer's health staleness field. Zero when no snapshot has been
// captured yet (nothing has been served stale).
func (r *Reasoner) ViewStaleness() time.Duration {
	r.viewMu.Lock()
	cur := r.viewCur
	r.viewMu.Unlock()
	if cur == nil {
		return 0
	}
	return time.Since(cur.born)
}

// BackgroundErr reports the first failure recorded by the reasoner's
// background maintenance — a store compaction panic or a background
// checkpoint error — without blocking on inference or I/O. Unlike Err,
// a non-nil BackgroundErr does not necessarily poison writes (a
// compaction panic leaves the store serving correctly, just
// uncompacted); the serving layer surfaces it as a degraded health
// state.
func (r *Reasoner) BackgroundErr() error {
	if err := r.store.CompactionErr(); err != nil {
		return err
	}
	if r.dur != nil {
		return r.dur.getBgErr()
	}
	return nil
}
