// Command perfbench is offloadsim's same-host benchmark. One run
// measures one workload for --seconds and prints, as its last line, a
// JSON object with the run's correctness, the operations it attempted
// and failed, and its metrics: the end-to-end set from an untraced run
// (--trace 0), or the per-layer set from a traced run (--trace 1), which
// also reports the tracing overhead against an untraced window of the
// same process. README.md describes the workloads and metrics; run.py
// builds and runs it from the repository root:
//
//	python3 perfbench/run.py --workload offload-sweep --seed 1 --seconds 35 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"offloadsim"
	"offloadsim/internal/cluster"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// processStart stands in for the moment the process started when no
// launcher passes --launched-ns: package variables are initialised
// before main runs.
var processStart = time.Now()

// inputs is everything a window runs, generated from the seed.
type inputs struct {
	cells  []cell
	jobs   []jobReq
	sweeps []cluster.SweepRequest
}

// genInputs generates a window's inputs. The streams are sized well
// above what a window of the given length can consume (client A
// finishes under 100 jobs per second on the hosts measured); a window
// that exhausts one fails rather than wrapping around into repeats.
func genInputs(wl workloadDef, seed uint64, seconds int) inputs {
	n := 100 * max(seconds, 2*minJobs/100)
	return inputs{
		cells:  wl.Grid(seed),
		jobs:   jobStream(seed, n, wl.Jobs),
		sweeps: sweepStream(seed, n/2, wl.Sweeps),
	}
}

// setUp generates the inputs and boots a ready fleet.
func setUp(wl workloadDef, seed uint64, seconds int) (inputs, *fleet, error) {
	in := genInputs(wl, seed, seconds)
	f, err := startFleet()
	if err != nil {
		return in, nil, err
	}
	c := &http.Client{Timeout: 10 * time.Second}
	defer c.CloseIdleConnections()
	for _, a := range f.addrs {
		resp, err := c.Get(a + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("healthz %s: HTTP %d", a, resp.StatusCode)
			}
		}
		if err != nil {
			f.stop()
			return in, nil, err
		}
	}
	return in, f, nil
}

// windowResult is what one timed window measured.
type windowResult struct {
	engine  *enginePhase
	service *serviceRun
	// Traced windows only: layer CPU time and the spans fetched after.
	engineLayers  map[string]int64
	serviceLayers map[string]int64
	stages        map[string][]float64
	profileOps    opCount
	engineSeconds float64
}

// rounds is how many times a window alternates between its engine and
// service phases. Host speed drifts over seconds on a shared machine;
// spreading both phases over the whole window averages the drift into
// each metric.
const rounds = 8

// engineShare is the engine phase's share of a window; the service
// phase takes the rest, and longer if it needs it to finish minJobs.
const engineShare = 0.3

// runWindow runs rounds of the workload's two phases on a fresh fleet: a
// slice of the engine passes, then a chunk of the service load. A traced
// window CPU-profiles the engine and the service phase separately and
// fetches the service spans afterwards.
func runWindow(in inputs, f *fleet, seconds float64, traced bool) (*windowResult, error) {
	w := &windowResult{
		engine:        newEnginePhase(in.cells),
		engineLayers:  map[string]int64{},
		serviceLayers: map[string]int64{},
	}
	engineBudget := time.Duration(engineShare * seconds / rounds * float64(time.Second))
	serviceBudget := time.Duration((1 - engineShare) * seconds / rounds * float64(time.Second))
	svc, err := newServiceRun(f, in.jobs, in.sweeps)
	if err != nil {
		return nil, err
	}
	serviceLayerOfSample := func(fn, _ string) (string, error) { return serviceLayer(fn) }
	for k := 1; k <= rounds; k++ {
		// Each round starts from a collected heap, outside the profile,
		// so GC timing carries over neither into the next phase's time
		// nor into peak RSS.
		runtime.GC()
		err := w.profiled(traced, w.engineLayers, engineLayer, func() error {
			// Every round runs its share of two passes, so every cell
			// repeats by the end of the window.
			t0 := time.Now()
			w.engine.run(engineBudget, minRuns(w.engine, k))
			w.engineSeconds += time.Since(t0).Seconds()
			return nil
		})
		if err == nil {
			err = w.profiled(traced, w.serviceLayers, serviceLayerOfSample, func() error {
				return svc.chunk(serviceBudget, minJobs*k/rounds)
			})
		}
		if err != nil {
			return nil, err
		}
	}
	if err := svc.finish(); err != nil {
		return nil, err
	}
	w.service = svc
	if traced {
		w.stages = fetchStages(svc)
	}
	return w, nil
}

// minRuns is how many cells round k of a window must run for the phase
// to have completed k/rounds of two passes.
func minRuns(p *enginePhase, k int) int {
	return max(0, (2*len(p.cells)*k+rounds-1)/rounds-p.runs)
}

// profiled runs fn, under a CPU profile when traced, and adds the
// profile's CPU time per layer into into.
func (w *windowResult) profiled(traced bool, into map[string]int64, layerOf func(fn, file string) (string, error), fn func() error) error {
	if !traced {
		return fn()
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	err := fn()
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	samples, err := parseCPUProfile(prof.Bytes())
	if err != nil {
		return err
	}
	layers, err := bucket(samples, layerOf)
	w.profileOps.Attempted++
	if err != nil {
		w.profileOps.fail(err)
	}
	for l, ns := range layers {
		into[l] += ns
	}
	return nil
}

// fetchStages reads the fleet-stitched service trace of every job and
// sweep of the window from /v1/debug/traces and collects span durations
// by stage name. Traces the bounded store has already evicted are
// skipped.
func fetchStages(svc *serviceRun) map[string][]float64 {
	c := &http.Client{Timeout: 30 * time.Second}
	defer c.CloseIdleConnections()
	out := map[string][]float64{}
	fetch := func(addr, id string) {
		resp, err := c.Get(addr + "/v1/debug/traces/" + id + "?format=json")
		if err != nil {
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return
		}
		var spans []struct {
			Name    string `json:"name"`
			StartNS int64  `json:"start_unix_ns"`
			EndNS   int64  `json:"end_unix_ns"`
		}
		if json.NewDecoder(resp.Body).Decode(&spans) != nil {
			return
		}
		for _, s := range spans {
			out[s.Name] = append(out[s.Name], float64(s.EndNS-s.StartNS)/1e6)
		}
	}
	for _, j := range svc.Jobs {
		if j.Err == nil {
			fetch(j.Replica, j.ID)
		}
	}
	for _, s := range svc.Sweeps {
		if s.Err == nil {
			fetch(s.Replica, s.ID)
		}
	}
	return out
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload  = fs.String("workload", "", "workload to run: offload-sweep or memory-multicore")
		seed      = fs.Uint64("seed", 1, "seed for every generated input")
		seconds   = fs.Int("seconds", 35, "length of the timed window in seconds")
		trace     = fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		root      = fs.String("root", ".", "repository checkout holding testdata/golden and default.pgo")
		launched  = fs.Int64("launched-ns", 0, "Unix time in ns at which the launcher started this process (0: when package initialisation ran)")
		setupOnly = fs.Bool("setup-only", false, "set up, print the set-up time as 'setup <seconds>' and exit without measuring")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloadByName(*workload)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (offload-sweep, memory-multicore), --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	start := processStart
	if *launched != 0 {
		start = time.Unix(0, *launched)
	}
	goldenDir := filepath.Join(*root, "testdata", "golden")
	if _, err := os.Stat(goldenDir); err != nil {
		fmt.Fprintf(stderr, "perfbench: golden corpus: %v\n", err)
		return 1
	}
	fp := fingerprint(filepath.Join(*root, "default.pgo"))
	fpJSON, _ := json.Marshal(fp)
	if !*setupOnly {
		fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%d trace=%d\nhost %s\n", wl.Name, *seed, *seconds, *trace, fpJSON)
	}

	// Set-up runs from process start until the timed window opens.
	in, f, err := setUp(wl, *seed, *seconds)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: setup: %v\n", err)
		return 1
	}
	setups := []float64{time.Since(start).Seconds()}
	if *setupOnly {
		f.stop()
		fmt.Fprintf(stdout, "setup %.9f\n", setups[0])
		return 0
	}
	// More set-up samples from fresh launches of this program, half
	// before the timed window and half after, so a burst of host load
	// reaches few of them.
	relaunch := []string{"--root", *root, "--workload", wl.Name, "--seed", strconv.FormatUint(*seed, 10), "--seconds", strconv.Itoa(*seconds)}
	more, err := launchSetups(setupLaunches/2, relaunch)
	if err != nil {
		f.stop()
		fmt.Fprintf(stderr, "perfbench: setup launch: %v\n", err)
		return 1
	}
	setups = append(setups, more...)

	workers := runtime.NumCPU()
	secs := float64(*seconds)
	plain, err := runWindow(in, f, secs, false)
	f.stop()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	rss := peakRSSMB()
	more, err = launchSetups(setupLaunches-setupLaunches/2, relaunch)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: setup launch: %v\n", err)
		return 1
	}
	setups = append(setups, more...)
	var traced *windowResult
	if *trace == 1 {
		tf, err := startFleet()
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		traced, err = runWindow(in, tf, secs, true)
		tf.stop()
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}

	for _, w := range []*windowResult{plain, traced} {
		if w != nil {
			s := w.service
			fmt.Fprintf(stdout, "phases engine=%.1fs (%d passes) service=%.1fs (client A %.1fs, %d jobs; %d sweep points)\n",
				w.engineSeconds, w.engine.passes(), s.Seconds, s.JobSeconds, len(s.Jobs), s.points())
		}
	}
	fmt.Fprintf(stdout, "setup %d launches, median %.4fs\n", len(setups), median(setups))

	// Result checks, after the timed windows.
	checkStart := time.Now()
	ops := map[string]*opCount{}
	count := func(name string, o opCount) {
		if ops[name] == nil {
			ops[name] = &opCount{}
		}
		ops[name].merge(o)
	}
	direct := newDirectRunner()
	for _, w := range []*windowResult{plain, traced} {
		if w == nil {
			continue
		}
		count("simulations", w.engine.ops)
		jobs, points := checkService(w.service, direct, workers)
		count("jobs", jobs)
		count("sweep_points", points)
		if traced != nil {
			count("profiles", w.profileOps)
		}
	}
	if traced != nil {
		count("simulations", crossCheck(plain, traced))
	}
	count("golden", checkGolden(goldenDir))
	fmt.Fprintf(stdout, "checks %.1fs\n", time.Since(checkStart).Seconds())

	var metrics map[string]float64
	var defs []metricDef
	if traced == nil {
		defs, metrics = endToEnd, endToEndValues(plain, median(setups), rss)
	} else {
		defs, metrics = perLayer, perLayerValues(plain, traced)
	}
	return report(stdout, stderr, defs, metrics, ops)
}

// setupLaunches is how many --setup-only launches a measuring run adds
// to its own set-up time; setup_s is the median of all of them.
const setupLaunches = 10

// launchSetups starts this program n times with --setup-only and the
// given arguments, one after another, and returns the set-up time each
// launch reports, timed from the moment it was started.
func launchSetups(n int, args []string) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe, append(args, "--setup-only", "--launched-ns", strconv.FormatInt(time.Now().UnixNano(), 10))...)
		cmd.Stderr = os.Stderr
		raw, err := cmd.Output()
		if err != nil {
			return nil, err
		}
		f := strings.Fields(string(raw))
		if len(f) != 2 || f[0] != "setup" {
			return nil, fmt.Errorf("unexpected output %q", raw)
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// crossCheck requires the traced window's first-pass results to equal
// the untraced window's: tracing must not change what is simulated.
func crossCheck(a, b *windowResult) opCount {
	var ops opCount
	for i := range a.engine.first {
		if i >= len(b.engine.first) || a.engine.first[i].Bytes == nil || b.engine.first[i].Bytes == nil {
			continue
		}
		ops.Attempted++
		if !bytes.Equal(a.engine.first[i].Bytes, b.engine.first[i].Bytes) {
			ops.fail(fmt.Errorf("%s: traced result differs from untraced", a.engine.cells[i].Name))
		}
	}
	return ops
}

func report(stdout, stderr io.Writer, defs []metricDef, metrics map[string]float64, ops map[string]*opCount) int {
	var total opCount
	names := make([]string, 0, len(ops))
	for n := range ops {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		o := ops[n]
		fmt.Fprintf(stdout, "ops %-12s attempted=%d failed=%d\n", n, o.Attempted, o.Failed)
		for _, e := range o.Errors {
			fmt.Fprintf(stderr, "perfbench: %s: %s\n", n, e)
		}
		total.Attempted += o.Attempted
		total.Failed += o.Failed
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]value{}
	for _, d := range defs {
		v := metrics[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		fmt.Fprintf(stdout, "  %-34s %14.6g %s (%s is better)\n", d.Name, v, d.Unit, d.Better)
		out[d.Name] = value{v, d.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{total.Failed == 0, total.Attempted, total.Failed, out})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// endToEndValues computes the untraced metrics.
func endToEndValues(w *windowResult, setupS, rssMB float64) map[string]float64 {
	m := map[string]float64{
		"setup_s":      setupS,
		"peak_rss_mb":  rssMB,
		"sim_ipc_gain": ipcGain(w.engine.cells, w.engine.first),
	}
	for mode, name := range map[string]string{modeDetailed: "sim_mips", modeSampled: "sampled_mips", modeParallel: "parallel_mips"} {
		m[name] = w.engine.mips(mode)
	}
	s := w.service
	lat := s.latencies(nil)
	m["jobs_per_s"] = float64(len(lat)) / s.JobSeconds
	m["job_p50_ms"] = percentile(lat, 50)
	m["job_p99_ms"] = percentile(lat, supportedPercentile(len(lat), 10))
	m["sweep_points_per_s"] = float64(s.points()) / s.Seconds
	return m
}

// perLayerValues computes the traced run's metrics: layer attribution
// from the traced window, exact simulated counts, service internals,
// and the tracing overhead against the untraced window.
func perLayerValues(plain, tr *windowResult) map[string]float64 {
	m := map[string]float64{}
	for _, l := range engineLayers {
		m["ns_per_instr."+l] = ratio(float64(tr.engineLayers[l]), float64(tr.engine.instrs))
	}
	for k, v := range tr.engine.calls {
		m["call."+k] = mean(v)
	}
	for k, v := range simCounts(tr.engine.cells, tr.engine.first) {
		m[k] = v
	}
	m["parallel_ipc_err_pct"] = parallelErrPct(tr.engine.cells, tr.engine.first)

	s := tr.service
	for _, st := range serviceStages {
		m["stage."+st+"_ms"] = mean(tr.stages[st])
	}
	for _, c := range []string{"submit", "status", "result", "trace_fetch"} {
		m["call."+c+"_ms"] = median(s.Calls[c])
	}
	hit, miss := true, false
	m["latency.hit_p50_ms"] = median(s.latencies(&hit))
	m["latency.miss_p50_ms"] = median(s.latencies(&miss))
	d := func(name string) float64 { return s.After[name] - s.Before[name] }
	m["ratio.cache_hit"] = ratio(d("offsimd_cache_hits_total"), d("offsimd_cache_hits_total")+d("offsimd_cache_misses_total"))
	m["ratio.peer_cache_hit"] = ratio(d("offsimd_peer_cache_hits_total"), d("offsimd_peer_cache_hits_total")+d("offsimd_peer_cache_misses_total"))
	m["ratio.forwarded"] = ratio(d("offsimd_jobs_forwarded_total"), d("offsimd_jobs_submitted_total"))
	m["count.coalesced"] = d("offsimd_jobs_coalesced_total")
	m["count.stolen"] = d("offsimd_jobs_stolen_total")
	m["queue_wait_p50_ms"] = histP50(s.Before, s.After, "offsimd_queue_wait_seconds") * 1e3
	served := float64(len(s.Jobs) + s.points())
	for _, l := range serviceLayers {
		m["ns_per_job."+l] = ratio(float64(tr.serviceLayers[l]), served)
	}

	// Tracing overhead: how much slower the traced window ran.
	for mode, name := range map[string]string{modeDetailed: "sim_mips", modeSampled: "sampled_mips", modeParallel: "parallel_mips"} {
		a, b := plain.engine.mips(mode), tr.engine.mips(mode)
		m["overhead."+name+"_pct"] = ratio(a-b, a) * 100
	}
	a := float64(len(plain.service.latencies(nil))) / plain.service.JobSeconds
	b := float64(len(s.latencies(nil))) / s.JobSeconds
	m["overhead.jobs_per_s_pct"] = ratio(a-b, a) * 100
	return m
}

// simCounts are the exact simulated counts per simulated Minstr and the
// simulated ratios, over one pass of the engine cells.
func simCounts(cells []cell, runs []cellRun) map[string]float64 {
	var instrs, osEntries, offloads, c2c, inval, fills, quanta, parInstrs, intervals, smpInstrs, rebal, oscInstrs float64
	var acc, util, frac, ci []float64
	for i, c := range cells {
		r := runs[i].Res
		n := float64(r.Instrs)
		instrs += n
		osEntries += float64(r.OSEntries)
		offloads += float64(r.Offloads)
		c2c += float64(r.C2CTransfers)
		inval += float64(r.Invalidations)
		fills += float64(r.MemoryFills)
		if r.Parallel != nil {
			quanta += float64(r.Parallel.Quanta)
			parInstrs += n
		}
		if r.Sampling != nil {
			intervals += float64(r.Sampling.Intervals)
			smpInstrs += n
			frac = append(frac, r.Sampling.SampledFraction)
			ci = append(ci, r.Sampling.ThroughputRelErr)
		}
		if r.OSCores != nil {
			rebal += float64(r.OSCores.Rebalances)
			oscInstrs += n
		}
		if r.HasOSCore {
			util = append(util, r.OSCoreUtilization)
		}
		if c.Cfg.Policy == offloadsim.HardwarePredictor {
			acc = append(acc, r.BinaryAccuracy)
		}
	}
	perM := func(x, base float64) float64 { return ratio(x, base) * 1e6 }
	return map[string]float64{
		"count.os_entries":                perM(osEntries, instrs),
		"count.offloads":                  perM(offloads, instrs),
		"count.c2c_transfers":             perM(c2c, instrs),
		"count.invalidations":             perM(inval, instrs),
		"count.memory_fills":              perM(fills, instrs),
		"count.quanta":                    perM(quanta, parInstrs),
		"count.sampled_intervals":         perM(intervals, smpInstrs),
		"count.oscore_rebalances":         perM(rebal, oscInstrs),
		"ratio.predictor_binary_accuracy": mean(acc),
		"ratio.os_core_util":              mean(util),
		"ratio.sampled_fraction":          mean(frac),
		"ratio.sample_ci_rel_err":         mean(ci),
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
