package engine

import (
	"repro/internal/obs"
)

// This file is the engine's telemetry seam. Instrument (engine.go)
// attaches an obs.Registry; the store verbs time their unexported
// implementations through it and refresh the lifecycle gauges. With no
// registry attached (the default) each verb pays nil checks and a
// direct call — no closures, no defers, no allocations — which is what
// keeps the uninstrumented hot path as cheap as a direct call (see
// BenchmarkEngineBatchInstrumented and TestMatchBatchZeroAllocDisabled).

// verb indexes the per-verb mutation latency histograms.
type verb int

const (
	verbAppend verb = iota
	verbDelete
	verbWindow
	verbCompact
	verbRebalance
	numVerbs
)

// verbMetrics names each verb's latency histogram, in verb order.
var verbMetrics = [numVerbs]string{
	"engine_append_ns",
	"engine_delete_ns",
	"engine_window_ns",
	"engine_compact_ns",
	"engine_rebalance_ns",
}

// telemetry bundles the engine's metric handles, pre-resolved at
// Instrument time so hot paths never touch the registry's name map.
type telemetry struct {
	reg *obs.Registry

	batchNs    *obs.Histogram // MatchBatch wall time, ns
	batchRules *obs.Histogram // rules served per MatchBatch call

	verbNs [numVerbs]*obs.Histogram // mutation wall time per verb, ns

	mutations *obs.Counter // mutations that changed the store
	epoch     *obs.Gauge   // current data epoch
	liveRows  *obs.Gauge   // live (non-tombstoned) rows
	liveSkew  *obs.Gauge   // largest / smallest live shard size
}

func newTelemetry(reg *obs.Registry) *telemetry {
	if reg == nil {
		return nil
	}
	t := &telemetry{
		reg:        reg,
		batchNs:    reg.Histogram("engine_matchbatch_ns"),
		batchRules: reg.Histogram("engine_matchbatch_rules"),
	}
	for v, name := range verbMetrics {
		t.verbNs[v] = reg.Histogram(name)
	}
	t.mutations = reg.Counter("engine_mutations")
	t.epoch = reg.Gauge("engine_epoch")
	t.liveRows = reg.Gauge("engine_live_rows")
	t.liveSkew = reg.Gauge("engine_live_skew")
	return t
}

// now is the registry clock, or 0 when telemetry is disabled.
func (t *telemetry) now() int64 {
	if t == nil {
		return 0
	}
	return t.reg.Now()
}

// afterMutation refreshes the mutation-facing metrics. It runs after
// the instrumented verb released the write lock, so the gauge reads
// take the ordinary read-locked accessors.
func (t *telemetry) afterMutation(s *Engine) {
	t.mutations.Inc()
	t.epoch.Set(float64(s.Epoch()))
	t.liveRows.Set(float64(s.LiveLen()))
	lo, hi := s.LiveSpread()
	skew := 0.0
	if lo > 0 {
		skew = float64(hi) / float64(lo)
	}
	t.liveSkew.Set(skew)
}
