package query

import "repro/internal/obs"

// Metrics is the query engine's optional instrumentation, passed to
// Execute and ExecuteFunc; a nil *Metrics records nothing, so library
// callers pay nothing.
type Metrics struct {
	// PlanSeconds times the cost-based join-order planning pass.
	PlanSeconds *obs.Histogram
	// PlanCost records the planner's summed cardinality estimate for
	// the chosen order — the "how expensive did the planner think this
	// was" distribution, comparable against ExecSeconds to spot
	// mis-estimates.
	PlanCost *obs.Histogram
	// ExecSeconds times full query evaluation (planning included).
	ExecSeconds *obs.Histogram
	// Queries counts evaluations; Rows counts distinct solutions
	// produced across them.
	Queries *obs.Counter
	Rows    *obs.Counter
}

// NewMetrics registers the engine's instruments in reg under the
// slider_query_* names.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		PlanSeconds: reg.Histogram("slider_query_plan_seconds",
			"Join-order planning latency.", nil),
		PlanCost: reg.Histogram("slider_query_plan_cost",
			"Planner's summed cardinality estimate for the chosen join order.", obs.CostBuckets),
		ExecSeconds: reg.Histogram("slider_query_exec_seconds",
			"End-to-end query evaluation latency (planning included).", nil),
		Queries: reg.Counter("slider_query_total",
			"Query evaluations."),
		Rows: reg.Counter("slider_query_rows_total",
			"Distinct solutions produced by query evaluations."),
	}
}
