package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
)

// metricSpec is one metric as BENCHMARK.json declares it. Bound is the
// share of the parent's median by which an end-to-end metric may worsen;
// per-layer metrics have none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchConfig is BENCHMARK.json, the benchmark's declaration of its
// workloads and metrics; bounds and units are read from it so there is
// one source for them.
type benchConfig struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadConfig(path string) (*benchConfig, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c benchConfig
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for _, w := range c.Workloads {
		if _, ok := workloadByName(w.Name); !ok {
			return nil, fmt.Errorf("%s names workload %q, which the benchmark does not define", path, w.Name)
		}
	}
	if len(c.Workloads) != len(workloads) {
		return nil, fmt.Errorf("%s lists %d workloads, the benchmark defines %d", path, len(c.Workloads), len(workloads))
	}
	if c.RunSeconds < 1 {
		return nil, fmt.Errorf("%s: run_seconds must be at least 1", path)
	}
	for _, group := range [][]metricSpec{c.EndToEnd, c.PerLayer} {
		for _, s := range group {
			if !slices.Contains(measuredMetrics, s.Name) {
				return nil, fmt.Errorf("%s declares metric %q, which the benchmark does not measure", path, s.Name)
			}
		}
	}
	return &c, nil
}

// measuredMetrics are the metrics this program measures: the end-to-end
// ones on every workload, the per-layer ones where the workload crosses
// the layer. The median latency, lat_p50_us, is measured too but kept
// out of the declared metrics (see daemonRun.endToEnd); it totals the
// traced run's latency table.
var measuredMetrics = []string{
	"setup_s", "lat_p75_us", "flows_per_s", "payload_kBps",
	"bits_per_symbol", "delivered_ratio", "rss_peak_MB",

	"core.decode_p50_us", "core.decode_p99_us", "core.decodes_per_block",
	"core.symbols_per_block", "core.encode_ns_per_symbol", "core.quantized_ratio",
	"core.busy_us_per_flow", "core.allocs_per_decode",
	"channel.transmit_ns_per_symbol",
	"link.send_us", "link.step_p50_us", "link.step_p99_us", "link.rounds_per_flow",
	"link.flow_p50_us", "link.busy_us_per_flow", "link.cpu_us_per_flow",
	"link.overhead_us_per_flow", "link.allocs_per_flow", "link.alloc_bytes_per_flow",
	"link.flows_per_s",
	"transport.round_p50_us", "transport.round_p99_us", "transport.rounds_per_fetch",
	"transport.retries_per_fetch", "transport.useful_attempt_ratio",
	"transport.loss_events_per_fetch", "transport.srtt_rounds", "transport.cwnd_max",
	"transport.allocs_per_fetch",
	"daemon.cpu_us_per_flow", "daemon.bare_rtt_p50_us", "daemon.bare_rtt_p99_us",
	"daemon.bare_cpu_us", "daemon.sat_p99_us", "daemon.batching_factor",
	"daemon.ingress_dropped", "daemon.client_resubmits", "daemon.dup_submits",
	"daemon.queue_len_max", "daemon.gc_per_1k_flows", "daemon.corrupt_flows",
	"table.lat_unaccounted_us", "table.cpu_unaccounted_us", "table.fetch_unaccounted_us",
	"trace.lat_p50_overhead_pct",
}

// value is one measured metric: its value, the sample count it rests on
// (0 when it is a ratio of totals) and a short note such as the
// percentile a tail was read at.
type value struct {
	v    float64
	n    int
	note string
}

// result is one workload run's outcome.
type result struct {
	workload  string
	metrics   map[string]value
	attempted int
	failed    int
	correct   bool
	report    []string // tables and notes printed after the metrics
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// toJSON keeps exactly the metrics of specs, failing if one is missing,
// so a run never prints a result that omits a declared metric.
func (r *result) toJSON(specs []metricSpec) (jsonResult, error) {
	out := jsonResult{Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	for _, s := range specs {
		v, ok := r.metrics[s.Name]
		if !ok {
			return out, fmt.Errorf("workload %s did not measure %s", r.workload, s.Name)
		}
		x := v.v
		if math.IsNaN(x) || math.IsInf(x, 0) {
			// Nothing succeeded to measure: JSON has no NaN.
			x = 0
		}
		out.Metrics[s.Name] = jsonMetric{Value: x, Unit: s.Unit}
	}
	return out, nil
}
