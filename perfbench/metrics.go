package main

import (
	"fmt"
	"math"
)

// The metrics this benchmark prints, with their units. BENCHMARK.json
// lists exactly these (the package tests hold the two together); a run
// that would print anything else fails instead.
var endToEndUnits = map[string]string{
	"setup_s":        "s",
	"flows_per_s":    "flows/s",
	"verdict_p50_us": "us",
	"verdict_p99_us": "us",
	"barrier_p50_ms": "ms",
	"live_heap_mb":   "MB",
}

var perLayerUnits = map[string]string{
	"ipfix.decode_ns_per_flow":     "ns",
	"ipfix.decode_allocs_per_flow": "count",
	"ipfix.skipped_msgs":           "count",

	"core.queue.push_ns_per_flow":         "ns",
	"core.queue.producer_wait_share":      "ratio",
	"core.queue.shed_share":               "ratio",
	"core.queue.depth_hwm":                "count",
	"core.runtime.drain_ns_per_flow":      "ns",
	"core.runtime.drain_par1_ns_per_flow": "ns",

	"core.pipeline.classify_ns_per_flow": "ns",
	"core.pipeline.share.bogon":          "ratio",
	"core.pipeline.share.unrouted":       "ratio",
	"core.pipeline.share.invalid_full":   "ratio",
	"core.pipeline.share.valid":          "ratio",

	"core.aggregate.add_ns_per_flow": "ns",
	"core.aggregate.allocs_per_flow": "count",
	"core.aggregate.merge_ms":        "ms",
	"core.aggregate.fanin_srcs":      "count",

	"core.checkpoint.encode_ms":     "ms",
	"core.checkpoint.decode_ms":     "ms",
	"core.checkpoint.bytes":         "bytes",
	"core.checkpoint.encode_allocs": "count",

	"bgp.mrt_load_ms":    "ms",
	"core.build.cold_ms": "ms",

	"cluster.ingest_ns_per_flow":            "ns",
	"cluster.allocs_per_flow":               "count",
	"cluster.alloc_bytes_per_flow":          "bytes",
	"cluster.flow_wire_bytes_per_flow":      "bytes",
	"cluster.report_wire_bytes_per_barrier": "bytes",
	"cluster.epoch_ms":                      "ms",
	"cluster.retries":                       "count",

	"gc.cycles":            "count",
	"gc.pause_ms":          "ms",
	"generator.lag_p99_us": "us",
	"failed_share":         "ratio",
	"trace.overhead_pct":   "pct",
	"ledger.gap_pct":       "pct",
}

// metricSet collects one run's metrics against a unit table.
type metricSet struct {
	units map[string]string
	m     map[string]metric
}

func newMetricSet(units map[string]string) *metricSet {
	return &metricSet{units: units, m: map[string]metric{}}
}

func (s *metricSet) set(name string, v float64) {
	unit, ok := s.units[name]
	if !ok {
		panic(fmt.Sprintf("perfbench: metric %q is not declared", name))
	}
	s.m[name] = metric{v, unit}
}

// complete returns the metrics, or an error naming a declared metric the
// run did not measure.
func (s *metricSet) complete() (map[string]metric, error) {
	for name := range s.units {
		v, ok := s.m[name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, fmt.Errorf("metric %s was not measured", name)
		}
	}
	return s.m, nil
}
