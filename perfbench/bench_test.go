package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"offloadsim/internal/cluster"
	"offloadsim/internal/server"
)

// nameRE is the metric-name grammar: a letter or digit, then letters,
// digits, '_', '.' and '-', at most 64 in all.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// unitRE is the unit grammar.
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// checkCatalog validates a metric list: grammar and uniqueness.
func checkCatalog(defs []metricDef) error {
	seen := map[string]bool{}
	for _, d := range defs {
		if !nameRE.MatchString(d.Name) {
			return fmt.Errorf("metric name %q breaks the grammar", d.Name)
		}
		if !unitRE.MatchString(d.Unit) {
			return fmt.Errorf("metric %s: unit %q breaks the grammar", d.Name, d.Unit)
		}
		if d.Better != "higher" && d.Better != "lower" {
			return fmt.Errorf("metric %s: direction %q", d.Name, d.Better)
		}
		if seen[d.Name] {
			return fmt.Errorf("metric %s listed twice", d.Name)
		}
		seen[d.Name] = true
	}
	return nil
}

func TestSupportedPercentile(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{1000, 99}, {999, 98}, {2000, 99}, {500, 98}, {100, 90}, {20, 50}, {19, 0}, {0, 0},
	} {
		if got := supportedPercentile(c.n, 10); got != c.want {
			t.Errorf("supportedPercentile(%d, 10) = %d, want %d", c.n, got, c.want)
		}
	}
	// At the supported percentile, at least ten samples lie beyond it.
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	p99 := percentile(xs, supportedPercentile(len(xs), 10))
	beyond := 0
	for _, x := range xs {
		if x > p99 {
			beyond++
		}
	}
	if beyond < 10 {
		t.Errorf("%d samples beyond p99 of 1000, want >= 10", beyond)
	}
}

func TestMetricNameGrammar(t *testing.T) {
	for _, ok := range []string{"setup_s", "ns_per_instr.cache", "stage.queue_wait_ms", "a-b.c_9"} {
		if !nameRE.MatchString(ok) {
			t.Errorf("%q rejected", ok)
		}
	}
	for _, bad := range []string{"", "_x", ".x", "a b", "a/b", "p99%", strings.Repeat("a", 65)} {
		if nameRE.MatchString(bad) {
			t.Errorf("%q accepted", bad)
		}
	}
	if err := checkCatalog(append(append([]metricDef(nil), endToEnd...), perLayer...)); err != nil {
		t.Fatal(err)
	}
}

// TestEndToEndSets pins the end-to-end set, checks that no metric in it
// duplicates another, and that every workload has the traffic each
// metric is computed from: all three engine modes, HI/baseline pairs,
// and a job and sweep stream. The workloads' traffic must not overlap.
func TestEndToEndSets(t *testing.T) {
	want := []string{"setup_s", "peak_rss_mb", "sim_mips", "sampled_mips", "parallel_mips", "sim_ipc_gain",
		"jobs_per_s", "job_p50_ms", "job_p99_ms", "sweep_points_per_s"}
	var names []string
	for _, d := range endToEnd {
		names = append(names, d.Name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("end-to-end metrics = %v, want %v", names, want)
	}
	for _, n := range names {
		for _, m := range names {
			if m != n && strings.HasSuffix(n, "_"+m) {
				t.Errorf("end-to-end metric %s duplicates %s", n, m)
			}
		}
	}
	profilesOf := map[string]map[string]bool{}
	for _, w := range workloadDefs {
		modes := map[string]bool{}
		roles := map[string]bool{}
		profiles := map[string]bool{}
		for _, c := range w.Grid(1) {
			modes[c.Mode] = true
			roles[c.Role] = true
			profiles[c.Cfg.Workload.Name] = true
		}
		for _, m := range []string{modeDetailed, modeSampled, modeParallel} {
			if !modes[m] {
				t.Errorf("%s: no %s cell for %s", w.Name, m, map[string]string{modeDetailed: "sim_mips", modeSampled: "sampled_mips", modeParallel: "parallel_mips"}[m])
			}
		}
		if !roles["baseline"] || !roles["hi"] {
			t.Errorf("%s: no HI/baseline pair for sim_ipc_gain", w.Name)
		}
		if ipc := ipcGain(w.Grid(1), make([]cellRun, len(w.Grid(1)))); ipc != 0 {
			t.Errorf("%s: gain %v from empty results", w.Name, ipc)
		}
		for _, j := range jobStream(1, 200, w.Jobs) {
			profiles[j.Spec.Workload] = true
		}
		for _, s := range sweepStream(1, 50, w.Sweeps) {
			for _, p := range s.Workloads {
				profiles[p] = true
			}
		}
		profilesOf[w.Name] = profiles
	}
	for a, pa := range profilesOf {
		for b, pb := range profilesOf {
			for p := range pa {
				if a < b && pb[p] {
					t.Errorf("workloads %s and %s both run profile %s", a, b, p)
				}
			}
		}
	}
}

// TestBenchmarkJSONMatchesCatalog keeps the repository's BENCHMARK.json
// in step with what the program prints.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json next to this directory: %v", err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(bj.Workloads), len(workloadDefs))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloadDefs[i].Name {
			t.Errorf("workload %d: %s in BENCHMARK.json, %s in the program", i, w.Name, workloadDefs[i].Name)
		}
	}
	for _, c := range []struct {
		what string
		got  []struct{ Name, Unit, Better string }
		want []metricDef
	}{{"end_to_end", bj.EndToEnd, endToEnd}, {"per_layer", bj.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", c.what, len(c.got), len(c.want))
			continue
		}
		for i, g := range c.got {
			if w := c.want[i]; g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s %d: %+v in BENCHMARK.json, %+v in the program", c.what, i, g, w)
			}
		}
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	enc := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	for _, w := range workloadDefs {
		grid := func(seed uint64) string {
			var parts []string
			for _, c := range w.Grid(seed) {
				parts = append(parts, enc([]any{c.Name, c.Mode, c.Cfg.Seed, c.Cfg.Threshold, c.Cfg.UserCores, c.Cfg.MeasureInstrs}))
			}
			return strings.Join(parts, "\n")
		}
		if grid(7) != grid(7) {
			t.Errorf("%s: grids differ for the same seed", w.Name)
		}
		if grid(7) == grid(8) {
			t.Errorf("%s: grids identical for different seeds", w.Name)
		}
		if enc(jobStream(7, 2000, w.Jobs)) != enc(jobStream(7, 2000, w.Jobs)) || enc(sweepStream(7, 100, w.Sweeps)) != enc(sweepStream(7, 100, w.Sweeps)) {
			t.Errorf("%s: streams differ for the same seed", w.Name)
		}
		if enc(jobStream(7, 200, w.Jobs)) == enc(jobStream(8, 200, w.Jobs)) {
			t.Errorf("%s: job streams identical for different seeds", w.Name)
		}

		// The stream has the shape the workload claims.
		jobs := jobStream(7, 4000, w.Jobs)
		var repeats, sampled, traced, oscore, parallel int
		for _, j := range jobs {
			if j.Repeat {
				repeats++
			}
			switch {
			case j.Spec.Mode == "sampled":
				sampled++
			case j.Spec.Mode == "parallel":
				parallel++
			case j.Spec.OSCores == 2:
				oscore++
			}
			if j.Spec.Trace {
				traced++
			}
			if _, _, err := specKey(j.Spec); err != nil {
				t.Fatalf("%s: invalid job spec %+v: %v", w.Name, j.Spec, err)
			}
			cores := uint64(max(1, j.Spec.Cores))
			if m := *j.Spec.MeasureInstrs * cores; m < 190_000 || m > 500_000 {
				t.Fatalf("%s: job of %d instrs", w.Name, m)
			}
		}
		share := func(n int) float64 { return float64(n) / float64(len(jobs)) }
		if r := share(repeats); r < 0.25 || r > 0.30 {
			t.Errorf("%s: repeat share %.3f, want 0.25-0.30", w.Name, r)
		}
		if s := share(sampled); s < 0.08 || s > 0.12 {
			t.Errorf("%s: sampled share %.3f", w.Name, s)
		}
		if s := share(traced); s < 0.04 || s > 0.06 {
			t.Errorf("%s: traced share %.3f", w.Name, s)
		}
		for _, c := range []struct {
			what string
			n    int
			want float64
		}{{"os-core", oscore, w.Jobs.OSCoreShare}, {"parallel", parallel, w.Jobs.ParallelShare}} {
			if s := share(c.n); s < 0.6*c.want || s > 1.2*c.want {
				t.Errorf("%s: %s share %.3f, want about %.2f of fresh specs", w.Name, c.what, s, c.want)
			}
		}
	}
}

// tinySpec is a job small enough to run in a unit test.
func tinySpec(seed uint64) server.JobSpec {
	n, lat := 100, 100
	warm, measure := uint64(0), uint64(20_000)
	return server.JobSpec{Workload: "apache", Threshold: &n, LatencyCycles: &lat, WarmupInstrs: &warm, MeasureInstrs: &measure, Seed: &seed}
}

func TestChecksCatchCorruption(t *testing.T) {
	// Engine invariants.
	c := cell{Name: "apache", Mode: modeDetailed, Cfg: goldenCells()[0].Cfg}
	c.Cfg.WarmupInstrs, c.Cfg.MeasureInstrs = 0, 20_000
	r, err := runCell(c)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkInvariants(c, r.Res); err != nil {
		t.Fatalf("clean result rejected: %v", err)
	}
	bad := r.Res
	bad.Offloads = bad.OSEntries + 1
	if checkInvariants(c, bad) == nil {
		t.Error("off-loads > OS entries accepted")
	}
	bad = r.Res
	bad.Instrs = c.Cfg.MeasureInstrs - 1
	if checkInvariants(c, bad) == nil {
		t.Error("short retirement accepted")
	}

	// A served job must equal the direct engine run of its spec.
	d := newDirectRunner()
	spec := tinySpec(3)
	d.prepare([]server.JobSpec{spec}, 1)
	want, err := d.get(spec)
	if err != nil {
		t.Fatal(err)
	}
	good := jobOutcome{Req: jobReq{Spec: spec}, ID: "j-1", Result: want.bytes}
	corrupt := good
	corrupt.ID = "j-2"
	corrupt.Result = bytes.Replace(want.bytes, []byte(`"Instrs":`), []byte(`"Instrs":1`), 1)
	run := &serviceRun{Jobs: []jobOutcome{good, corrupt}}
	if ops, _ := checkService(run, d, 1); ops.Attempted != 2 || ops.Failed != 1 {
		t.Errorf("corrupted job: attempted %d failed %d, want 2 and 1", ops.Attempted, ops.Failed)
	}

	// Sweep rows: complete, in order, once, and one row per key.
	req := sweepStream(7, 1, serverProfiles)[0]
	points := sweepPoints(req)
	row := func(p cluster.Point, thr float64) cluster.PointResult {
		return cluster.PointResult{Index: p.Index, Workload: p.Workload, Policy: p.Policy, Threshold: p.Threshold, OneWay: p.Latency,
			Status: "done", Row: &cluster.Row{Workload: p.Workload, Threshold: p.Threshold, OneWay: p.Latency, Throughput: thr}}
	}
	var rows []cluster.PointResult
	for _, p := range points {
		rows = append(rows, row(p, 0.5))
	}
	cases := map[string]struct {
		rows []cluster.PointResult
		fail bool
	}{
		"clean":     {rows, false},
		"missing":   {rows[:len(rows)-1], true},
		"reordered": {append([]cluster.PointResult{rows[1], rows[0]}, rows[2:]...), true},
		"duplicate": {append([]cluster.PointResult{rows[0], rows[0]}, rows[2:]...), true},
	}
	for name, c := range cases {
		ops := checkSweepRows(sweepOutcome{Req: req, ID: name, Points: c.rows}, points, map[string][]byte{})
		if (ops.Failed > 0) != c.fail {
			t.Errorf("%s: failed %d", name, ops.Failed)
		}
	}
	seen := map[string][]byte{}
	checkSweepRows(sweepOutcome{Req: req, ID: "a", Points: rows}, points, seen)
	changed := append([]cluster.PointResult(nil), rows...)
	changed[0] = row(points[0], 0.25)
	if ops := checkSweepRows(sweepOutcome{Req: req, ID: "b", Points: changed}, points, seen); ops.Failed != 1 {
		t.Errorf("changed row for a seen key: failed %d, want 1", ops.Failed)
	}
}

func TestGoldenCheckCatchesCorruption(t *testing.T) {
	src := filepath.Join("..", "testdata", "golden")
	dir := t.TempDir()
	cells := goldenCells()
	for i, c := range cells {
		b, err := os.ReadFile(filepath.Join(src, c.Name+".json"))
		if err != nil {
			t.Skipf("golden corpus not found: %v", err)
		}
		if i == 0 {
			b = bytes.Replace(b, []byte(`"Offloads": `), []byte(`"Offloads": 1`), 1)
		}
		if err := os.WriteFile(filepath.Join(dir, c.Name+".json"), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if ops := checkGolden(src); ops.Failed != 0 {
		t.Fatalf("committed corpus: %v", ops.Errors)
	}
	if ops := checkGolden(dir); ops.Attempted != len(cells) || ops.Failed != 1 {
		t.Errorf("corrupted corpus: attempted %d failed %d, want %d and 1", ops.Attempted, ops.Failed, len(cells))
	}
}

func TestLayerTables(t *testing.T) {
	for _, c := range []struct{ fn, file, want string }{
		{"offloadsim/internal/cache.(*Cache).Probe", "/x/internal/cache/cache.go", "cache"},
		{"offloadsim/internal/rng.(*Source).Uint64", "", "rng"},
		{"offloadsim/internal/workloads.Apache", "", "trace"},
		{"offloadsim/internal/oscore.(*Cluster).Route", "", "offload"},
		{"offloadsim/internal/sim.(*Simulator).step", "/x/internal/sim/sim.go", "sim"},
		{"offloadsim/internal/sim.(*Simulator).barrier", "/x/internal/sim/parallel.go", "parallel"},
		{"offloadsim/internal/coherence.(*System).ReconcileEpoch", "/x/internal/coherence/epoch.go", "parallel"},
		{"offloadsim/internal/coherence.(*System).Read", "/x/internal/coherence/coherence.go", "coherence"},
		{"runtime.mallocgc", "", "runtime"},
		{"main.runCell", "", "runtime"},
	} {
		if got, err := engineLayer(c.fn, c.file); err != nil || got != c.want {
			t.Errorf("engineLayer(%s) = %q, %v; want %q", c.fn, got, err, c.want)
		}
	}
	if _, err := engineLayer("offloadsim/internal/newpkg.F", ""); err == nil {
		t.Error("unmapped internal package accepted by the engine table")
	}
	for _, c := range []struct{ fn, want string }{
		{"net/http.(*conn).serve", "net_http"},
		{"internal/poll.(*FD).Read", "net_http"},
		{"encoding/json.(*encodeState).marshal", "encoding_json"},
		{"offloadsim/internal/server.(*Server).submit", "server"},
		{"offloadsim/internal/cpu.(*Core).RunSegment", "engine"},
		{"runtime.futex", "runtime"},
	} {
		if got, err := serviceLayer(c.fn); err != nil || got != c.want {
			t.Errorf("serviceLayer(%s) = %q, %v; want %q", c.fn, got, err, c.want)
		}
	}
	if _, err := serviceLayer("offloadsim/internal/newpkg.F"); err == nil {
		t.Error("unmapped internal package accepted by the service table")
	}
	if _, err := bucket([]leafSample{{Func: "offloadsim/internal/newpkg.F", CPUNanos: 1}}, engineLayer); err == nil {
		t.Error("bucket accepted a sample in an unmapped package")
	}
}

//go:noinline
func spin(d time.Duration) int {
	n := 0
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1000; i++ {
			n += i * i
		}
	}
	return n
}

func TestParseCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("profiling unavailable: %v", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, inSpin int64
	for _, s := range samples {
		total += s.CPUNanos
		if s.Func == "offloadsim/perfbench.spin" || strings.HasSuffix(s.Func, ".spin") {
			inSpin += s.CPUNanos
		}
	}
	if total == 0 || inSpin < total/2 {
		t.Errorf("profile: %d ns total, %d ns in spin", total, inSpin)
	}
}
