package main

import (
	"math"
	"sort"
)

// metricDef names one reported number with its unit and direction.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
}

// workloadDef is one benchmark workload (BENCHMARK.json says why each
// was chosen). Every run reports every end-to-end metric, so every
// workload drives both the engine and the loopback fleet, each with
// traffic of its own: the workload's engine grid, its client-A job mix
// and the profiles client B sweeps over.
type workloadDef struct {
	Name   string
	Grid   func(seed uint64) []cell
	Jobs   jobMix
	Sweeps []string
}

var workloadDefs = []workloadDef{
	{
		Name: "offload-sweep",
		Grid: sweepGrid,
		Jobs: jobMix{
			Profiles:    serverProfiles,
			Cores:       []int{1},
			OSCoreShare: 0.15,
		},
		Sweeps: serverProfiles,
	},
	{
		Name: "memory-multicore",
		Grid: multicoreGrid,
		Jobs: jobMix{
			Profiles:      computeProfiles,
			Cores:         []int{1, 2, 4},
			ParallelShare: 0.15,
		},
		Sweeps: computeProfiles,
	},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloadDefs {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// endToEnd is the untraced run's metric set, the same for every
// workload. sim_ipc_gain is simulated and deterministic per seed; the
// rest are measured on the running host.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"sim_mips", "Minstr/s", "higher"},
	{"sampled_mips", "Minstr/s", "higher"},
	{"parallel_mips", "Minstr/s", "higher"},
	{"sim_ipc_gain", "ratio", "higher"},
	{"jobs_per_s", "1/s", "higher"},
	{"job_p50_ms", "ms", "lower"},
	{"job_p99_ms", "ms", "lower"},
	{"sweep_points_per_s", "1/s", "higher"},
}

// Layer buckets of the engine profile (ns_per_instr.*) and of the
// service profile (ns_per_job.*); layers.go maps packages onto them.
var (
	engineLayers  = []string{"rng", "trace", "cpu", "cache", "coherence", "offload", "sample", "parallel", "sim", "runtime"}
	serviceLayers = []string{"server", "cluster", "obs", "telemetry", "net_http", "encoding_json", "engine", "runtime"}
	serviceStages = []string{"request", "ring_route", "peer_forward", "admission", "cache_lookup", "peer_cache_fetch", "queue_wait", "steal_push", "peer_execute", "sim_execute", "sweep_point"}
)

// perLayer is the traced run's metric set.
var perLayer = func() []metricDef {
	var m []metricDef
	for _, l := range engineLayers {
		m = append(m, metricDef{"ns_per_instr." + l, "ns", "lower"})
	}
	for _, c := range []string{"sim_new_ms", "run_ms", "run_sampled_ms", "run_parallel_ms"} {
		m = append(m, metricDef{"call." + c, "ms", "lower"})
	}
	for _, c := range []string{"os_entries", "offloads", "c2c_transfers", "invalidations", "memory_fills", "quanta", "sampled_intervals", "oscore_rebalances"} {
		m = append(m, metricDef{"count." + c, "1/Minstr", "lower"})
	}
	m = append(m,
		metricDef{"ratio.predictor_binary_accuracy", "ratio", "higher"},
		metricDef{"ratio.os_core_util", "ratio", "higher"},
		metricDef{"ratio.sampled_fraction", "ratio", "lower"},
		metricDef{"ratio.sample_ci_rel_err", "ratio", "lower"},
		// Exact per seed, but its value moves by more than 10x from one
		// seed to the next, so it cannot hold an end-to-end bound.
		metricDef{"parallel_ipc_err_pct", "%", "lower"},
	)
	for _, s := range serviceStages {
		m = append(m, metricDef{"stage." + s + "_ms", "ms", "lower"})
	}
	for _, c := range []string{"submit_ms", "status_ms", "result_ms", "trace_fetch_ms"} {
		m = append(m, metricDef{"call." + c, "ms", "lower"})
	}
	m = append(m,
		metricDef{"latency.hit_p50_ms", "ms", "lower"},
		metricDef{"latency.miss_p50_ms", "ms", "lower"},
		metricDef{"ratio.cache_hit", "ratio", "higher"},
		metricDef{"ratio.peer_cache_hit", "ratio", "higher"},
		metricDef{"ratio.forwarded", "ratio", "lower"},
		metricDef{"count.coalesced", "count", "higher"},
		metricDef{"count.stolen", "count", "lower"},
		metricDef{"queue_wait_p50_ms", "ms", "lower"},
	)
	for _, l := range serviceLayers {
		m = append(m, metricDef{"ns_per_job." + l, "ns", "lower"})
	}
	// Tracing overhead: the traced window's loss against the untraced
	// window of the same process, in percent.
	for _, o := range []string{"sim_mips", "sampled_mips", "parallel_mips", "jobs_per_s"} {
		m = append(m, metricDef{"overhead." + o + "_pct", "%", "lower"})
	}
	return m
}()

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// supportedPercentile is the highest whole percentile p such that at
// least minBeyond samples lie strictly beyond the p-th percentile of n
// samples: p99 needs 1000 samples for 10 beyond it. It returns 0 when
// n cannot support even the median.
func supportedPercentile(n, minBeyond int) int {
	for p := 99; p >= 50; p-- {
		if float64(n)*float64(100-p)/100 >= float64(minBeyond) {
			return p
		}
	}
	return 0
}

// percentile returns the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p int) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(float64(p) / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// geomean returns the geometric mean of positive xs.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}
