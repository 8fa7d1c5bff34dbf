package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// metricDef declares one metric: BENCHMARK.json lists exactly these
// names (TestDeclaredMetricsMatchBenchmarkJSON checks both ways).
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd are the metrics a user of either engine feels, measured with
// tracing off. Every workload emits every one of them.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"req_per_s", "1/s", "higher"},
	{"allocs_per_req", "allocs/req", "lower"},
	{"alloc_bytes_per_req", "B/req", "lower"},
	{"heap_live_mb", "MB", "lower"},
	{"p50_us", "us", "lower"},
	{"p99_us", "us", "lower"},
}

// perLayer are the outside-in layer metrics of the traced run. A layer
// a workload does not exercise reads 0 there.
var perLayer = []metricDef{
	{"server.setup_us_per_run", "us", "lower"},
	{"server.setup_allocs_per_run", "count", "lower"},
	{"sim.engine_new_us", "us", "lower"},
	{"sim.event_ns", "ns", "lower"},
	{"sim.event_far_ns", "ns", "lower"},
	{"dist.gen_ns_per_req", "ns", "lower"},
	{"mica.prepare_ns_per_req", "ns", "lower"},
	{"mica.execute_ns_per_req", "ns", "lower"},
	{"mica.allocs_per_req", "allocs/req", "lower"},
	{"check.ns_per_req", "ns", "lower"},
	{"check.checks_per_req", "count", "lower"},
	{"policy.tick_ns_g4", "ns", "lower"},
	{"policy.tick_ns_g64", "ns", "lower"},
	{"policy.tick_share_pct", "%", "lower"},
	{"core.ticks", "count", "lower"},
	{"core.updates_sent", "count", "lower"},
	{"core.migrated_reqs", "count", "lower"},
	{"core.predicted_reqs", "count", "lower"},
	{"core.guard_skips", "count", "lower"},
	{"core.phase_forwards", "count", "lower"},
	{"core.phase_stays", "count", "lower"},
	{"core.migrate_useful_pct", "%", "higher"},
	{"hwmsg.nack_pct", "%", "lower"},
	{"hwmsg.fifo_full", "count", "lower"},
	{"hwmsg.mr_full_aborts", "count", "lower"},
	{"rack.pick_ns", "ns", "lower"},
	{"arena.acquire_release_ns", "ns", "lower"},
	{"exec.worker_util_pct", "%", "higher"},
	{"sim.queue_wait_us_mean", "us", "lower"},
	{"sched.steal_frac", "ratio", "lower"},
	{"stats.summarize_ms", "ms", "lower"},
	{"fleet.speedup_x", "x", "higher"},
	{"sim.rep_ms", "ms", "lower"},
	{"sim.requests_per_rep", "count", "higher"},
	{"sim.attributed_ns_per_req", "ns", "lower"},
	{"sim.remainder_ns_per_req", "ns", "lower"},
	{"sim.slo_viol_pct", "%", "lower"},
	{"sim.tput_at_slo_mrps", "Mreq/s", "higher"},
	{"sim.model_err_pct", "%", "lower"},
	{"rpcproto.encode_req_ns_16b", "ns", "lower"},
	{"rpcproto.decode_req_ns_16b", "ns", "lower"},
	{"rpcproto.encode_resp_ns_16b", "ns", "lower"},
	{"rpcproto.decode_resp_ns_16b", "ns", "lower"},
	{"rpcproto.encode_req_ns_512b", "ns", "lower"},
	{"rpcproto.decode_req_ns_512b", "ns", "lower"},
	{"rpcproto.encode_resp_ns_512b", "ns", "lower"},
	{"rpcproto.decode_resp_ns_512b", "ns", "lower"},
	{"live.runtime_req_per_s", "1/s", "higher"},
	{"live.handler_ns_per_req", "ns", "lower"},
	{"mica.get_ns", "ns", "lower"},
	{"mica.set_ns", "ns", "lower"},
	{"live.client_p50_us", "us", "lower"},
	{"live.client_p99_us", "us", "lower"},
	{"live.server_p50_us", "us", "lower"},
	{"live.server_p99_us", "us", "lower"},
	{"live.wire_p50_us", "us", "lower"},
	{"live.ticks", "count", "lower"},
	{"live.migrated_reqs", "count", "lower"},
	{"live.nacked_reqs", "count", "lower"},
	{"live.guard_skips", "count", "lower"},
	{"live.stalls_per_round", "count", "lower"},
	{"live.loadgen_lag_ms", "ms", "lower"},
	{"live.late_rounds", "count", "lower"},
	{"live.allocs_per_rpc", "allocs/req", "lower"},
	{"live.arena_leaked", "count", "lower"},
	{"live.arena_stale", "count", "lower"},
	{"live.tcp_remainder_ns_per_rpc", "ns", "lower"},
	{"trace.overhead_pct", "%", "lower"},
	{"proc.peak_rss_mb", "MB", "lower"},
}

// values maps a metric name to what one run measured.
type values map[string]float64

// reading is one metric in the result line.
type reading struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]reading `json:"metrics"`
}

// readings pairs every declared metric with its measured value. An
// end-to-end metric the workload did not set is an error; a layer
// metric it did not set reads 0: the workload does not exercise that
// layer. A value under an undeclared name is an error either way.
func readings(defs []metricDef, v values, mustSet bool) (map[string]reading, error) {
	out := make(map[string]reading, len(defs))
	for _, d := range defs {
		x, ok := v[d.Name]
		if !ok && mustSet {
			return nil, fmt.Errorf("bench: workload did not measure %s", d.Name)
		}
		out[d.Name] = reading{Value: x, Unit: d.Unit}
	}
	var undeclared []string
	for name := range v {
		if _, ok := out[name]; !ok {
			undeclared = append(undeclared, name)
		}
	}
	if len(undeclared) > 0 {
		sort.Strings(undeclared)
		return nil, fmt.Errorf("bench: undeclared metrics %v", undeclared)
	}
	return out, nil
}

// benchmarkFile is the part of BENCHMARK.json the harness reads: the
// workload names, and each end-to-end metric's direction and bound for
// -compare.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}
