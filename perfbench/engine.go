package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"offloadsim"
)

// Engine modes a cell runs on.
const (
	modeDetailed = "detailed"
	modeSampled  = "sampled"
	modeParallel = "parallel"
)

// cell is one direct facade simulation.
type cell struct {
	Name string
	Mode string
	Cfg  offloadsim.Config
	// Group pairs cells for a ratio (sim_ipc_gain, parallel_ipc_err_pct):
	// cells of one group share profile, latency and seed. Role is
	// "baseline" or "hi" within the group; empty cells pair with nothing.
	Group string
	Role  string
}

// pointSeed derives a simulation seed from the benchmark seed and a
// salt (splitmix64), never 0.
func pointSeed(seed uint64, salt uint64) uint64 {
	z := seed + 0x9e3779b97f4a7c15*(salt+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

func mustProfile(name string) *offloadsim.Workload {
	p, ok := offloadsim.WorkloadByName(name)
	if !ok {
		panic("unknown profile " + name)
	}
	return p
}

var (
	serverProfiles  = []string{"apache", "specjbb", "derby"}
	computeProfiles = []string{"mcf", "canneal", "blackscholes"}
)

// sweepGrid is the paper's Fig. 4/5 design space on the detailed serial
// engine at the default warmup: per server profile and one-way latency,
// the baseline and HI at N = 100, 1000, 10000 and dynamic N; a K=2
// synchronous and a K=4 asynchronous OS-core cell at 4 user cores; the
// baseline and HI at 4 user cores on the serial and the quantum-parallel
// engine; and one validation-scale sampled cell. One seed per profile,
// so a HI cell and its baseline see the same instruction stream.
func sweepGrid(seed uint64) []cell {
	var cells []cell
	for pi, name := range serverProfiles {
		prof := mustProfile(name)
		s := pointSeed(seed, uint64(pi))
		base := offloadsim.DefaultConfig(prof)
		base.Seed = s
		base.MeasureInstrs = 300_000
		for _, lat := range []int{100, 5000} {
			group := fmt.Sprintf("%s/%d", name, lat)
			c := base
			c.Migration = offloadsim.CustomMigration(lat)
			b := c
			b.Policy = offloadsim.Baseline
			b.Threshold = 0
			cells = append(cells, cell{Name: group + "/baseline", Mode: modeDetailed, Cfg: b, Group: group, Role: "baseline"})
			for _, n := range []int{100, 1000, 10000} {
				h := c
				h.Policy = offloadsim.HardwarePredictor
				h.Threshold = n
				cells = append(cells, cell{Name: fmt.Sprintf("%s/HI-N%d", group, n), Mode: modeDetailed, Cfg: h, Group: group, Role: "hi"})
			}
			d := c
			d.Policy = offloadsim.HardwarePredictor
			d.DynamicN = true
			d.Tuner = offloadsim.DefaultTunerConfig()
			cells = append(cells, cell{Name: group + "/HI-dynamic", Mode: modeDetailed, Cfg: d, Group: group, Role: "hi"})
		}
		k2 := base
		k2.UserCores = 4
		k2.OSCores = offloadsim.OSCores{Enabled: true, K: 2, Rebalance: true}
		cells = append(cells, cell{Name: name + "/4core-K2-sync", Mode: modeDetailed, Cfg: k2})
		k4 := base
		k4.UserCores = 4
		k4.OSCores = offloadsim.DefaultOSCores(4)
		k4.OSCores.Async = true
		k4.OSCores.Rebalance = true
		cells = append(cells, cell{Name: name + "/4core-K4-async", Mode: modeDetailed, Cfg: k4})
		four := base
		four.UserCores = 4
		four.MeasureInstrs = 100_000
		cells = append(cells, enginePair(name+"/4core", four, 1000)...)
		sm := base
		sm.MeasureInstrs = 32_000_000
		sm.Sampling = offloadsim.DefaultSampling()
		cells = append(cells, cell{Name: name + "/sampled-32M", Mode: modeSampled, Cfg: sm})
	}
	return cells
}

// multicoreGrid runs OS-light compute profiles at 8 user cores, baseline
// and HI, each once on the serial engine and once on the
// quantum-parallel engine with one worker per host CPU, and one
// validation-scale sampled cell per profile.
func multicoreGrid(seed uint64) []cell {
	var cells []cell
	for pi, name := range computeProfiles {
		base := offloadsim.DefaultConfig(mustProfile(name))
		base.Seed = pointSeed(seed, 100+uint64(pi))
		eight := base
		eight.UserCores = 8
		eight.WarmupInstrs = 100_000
		eight.MeasureInstrs = 100_000
		cells = append(cells, enginePair(name+"/8core", eight, 100)...)
		sm := base
		sm.MeasureInstrs = 32_000_000
		sm.Sampling = offloadsim.DefaultSampling()
		cells = append(cells, cell{Name: name + "/sampled-32M", Mode: modeSampled, Cfg: sm})
	}
	return cells
}

// enginePair returns the baseline and HI at threshold n of base, each on
// the serial engine (group prefix+"/serial") and on the quantum-parallel
// engine with one worker per host CPU (group prefix+"/parallel").
func enginePair(prefix string, base offloadsim.Config, n int) []cell {
	var cells []cell
	for _, pol := range []string{"baseline", "hi"} {
		c := base
		if pol == "baseline" {
			c.Policy = offloadsim.Baseline
			c.Threshold = 0
		} else {
			c.Policy = offloadsim.HardwarePredictor
			c.Threshold = n
		}
		cells = append(cells, cell{Name: fmt.Sprintf("%s-%s/serial", prefix, pol), Mode: modeDetailed, Cfg: c, Group: prefix + "/serial", Role: pol})
		p := c
		p.Parallel = offloadsim.DefaultParallel()
		p.Parallel.Workers = runtime.NumCPU()
		cells = append(cells, cell{Name: fmt.Sprintf("%s-%s/parallel", prefix, pol), Mode: modeParallel, Cfg: p, Group: prefix + "/parallel", Role: pol})
	}
	return cells
}

// cellRun is one execution of a cell.
type cellRun struct {
	Res   offloadsim.Result
	Bytes []byte // json.Marshal of the result, as offsimd stores it
	NewNS int64  // facade construction (detailed cells only)
	RunNS int64  // the run call
}

// runCell executes c through the public facade and times the calls.
func runCell(c cell) (cellRun, error) {
	var (
		out cellRun
		err error
	)
	t0 := time.Now()
	switch c.Mode {
	case modeDetailed:
		var s *offloadsim.Simulator
		s, err = offloadsim.New(c.Cfg)
		t1 := time.Now()
		out.NewNS = t1.Sub(t0).Nanoseconds()
		if err == nil {
			out.Res = s.Run()
		}
		out.RunNS = time.Since(t1).Nanoseconds()
	case modeSampled:
		out.Res, _, err = offloadsim.RunSampled(c.Cfg)
		out.RunNS = time.Since(t0).Nanoseconds()
	case modeParallel:
		out.Res, err = offloadsim.RunParallel(c.Cfg)
		out.RunNS = time.Since(t0).Nanoseconds()
	default:
		err = fmt.Errorf("unknown mode %q", c.Mode)
	}
	if err != nil {
		return out, fmt.Errorf("%s: %w", c.Name, err)
	}
	out.Bytes, err = json.Marshal(out.Res)
	if err != nil {
		return out, fmt.Errorf("%s: encoding result: %w", c.Name, err)
	}
	return out, nil
}

// checkInvariants holds every result to the engine's conservation laws
// that the benchmark can see from outside.
func checkInvariants(c cell, r offloadsim.Result) error {
	cores := c.Cfg.UserCores
	if cores < 1 {
		cores = 1
	}
	if want := c.Cfg.MeasureInstrs * uint64(cores); r.Instrs < want {
		return fmt.Errorf("%s: retired %d < budget %d", c.Name, r.Instrs, want)
	}
	if r.Offloads > r.OSEntries {
		return fmt.Errorf("%s: %d off-loads > %d OS entries", c.Name, r.Offloads, r.OSEntries)
	}
	if r.Throughput <= 0 || math.IsNaN(r.Throughput) {
		return fmt.Errorf("%s: throughput %v", c.Name, r.Throughput)
	}
	return nil
}

// enginePhase runs its grid in slices: each call runs cells from where
// the last call stopped, cycling through the grid, so a window that
// calls it once per round spreads every pass across the whole window.
// The first run of each cell is the reference that every later run of
// it must reproduce byte for byte.
type enginePhase struct {
	cells []cell
	first []cellRun
	// runs counts cell executions; runs/len(cells) passes are complete.
	runs int
	// instrs sums simulated instructions over every execution; ns and
	// count sum host time (facade construction plus run) and executions
	// per cell.
	instrs uint64
	ns     []int64
	count  []int
	// calls holds facade call durations by call name, in ms.
	calls map[string][]float64
	ops   opCount
}

func newEnginePhase(cells []cell) *enginePhase {
	return &enginePhase{
		cells: cells,
		first: make([]cellRun, len(cells)),
		ns:    make([]int64, len(cells)),
		count: make([]int, len(cells)),
		calls: map[string][]float64{},
	}
}

// run executes at least minRuns cells, and more until budget has
// passed.
func (p *enginePhase) run(budget time.Duration, minRuns int) {
	start := time.Now()
	for n := 0; n < minRuns || time.Since(start) < budget; n++ {
		i := p.runs % len(p.cells)
		c := p.cells[i]
		p.runs++
		p.ops.Attempted++
		r, err := runCell(c)
		if err != nil {
			p.ops.fail(err)
			continue
		}
		p.record(i, r)
		switch {
		case p.first[i].Bytes == nil:
			if err := checkInvariants(c, r.Res); err != nil {
				p.ops.fail(err)
			}
			p.first[i] = r
		case !bytes.Equal(p.first[i].Bytes, r.Bytes):
			p.ops.fail(fmt.Errorf("%s: run %d differs from the first", c.Name, p.runs/len(p.cells)+1))
		}
	}
}

// passes returns the number of complete passes over the grid.
func (p *enginePhase) passes() int { return p.runs / len(p.cells) }

// mips returns a mode's simulated Minstr per host second: the
// instructions of the mode's cells over the sum of their mean run
// times, so every cell weighs the same however many times the window
// ran it.
func (p *enginePhase) mips(mode string) float64 {
	var instrs, ns float64
	for i, c := range p.cells {
		if c.Mode == mode && p.count[i] > 0 {
			instrs += float64(p.first[i].Res.Instrs)
			ns += float64(p.ns[i]) / float64(p.count[i])
		}
	}
	if ns == 0 {
		return 0
	}
	return instrs / ns * 1e3
}

func (p *enginePhase) record(i int, r cellRun) {
	c := p.cells[i]
	p.instrs += r.Res.Instrs
	p.ns[i] += r.NewNS + r.RunNS
	p.count[i]++
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	switch c.Mode {
	case modeDetailed:
		p.calls["sim_new_ms"] = append(p.calls["sim_new_ms"], ms(r.NewNS))
		p.calls["run_ms"] = append(p.calls["run_ms"], ms(r.RunNS))
	case modeSampled:
		p.calls["run_sampled_ms"] = append(p.calls["run_sampled_ms"], ms(r.RunNS))
	case modeParallel:
		p.calls["run_parallel_ms"] = append(p.calls["run_parallel_ms"], ms(r.RunNS))
	}
}

// ipcGain is the geomean, over every HI cell, of its throughput over
// the baseline cell of the same group (profile and latency).
func ipcGain(cells []cell, runs []cellRun) float64 {
	base := map[string]float64{}
	for i, c := range cells {
		if c.Role == "baseline" {
			base[c.Group] = runs[i].Res.Throughput
		}
	}
	var ratios []float64
	for i, c := range cells {
		if c.Role == "hi" && base[c.Group] > 0 && runs[i].Res.Throughput > 0 {
			ratios = append(ratios, runs[i].Res.Throughput/base[c.Group])
		}
	}
	return geomean(ratios)
}

// parallelErrPct is the largest normalized-throughput error of the
// parallel engine against the serial one, in percent: per engine pair,
// HI/baseline on the parallel engine against HI/baseline on the serial
// engine — the quantity the parallel accuracy gate judges.
func parallelErrPct(cells []cell, runs []cellRun) float64 {
	tp := map[string]float64{}
	var pairs []string
	for i, c := range cells {
		if c.Group == "" {
			continue
		}
		tp[c.Group+"|"+c.Role] = runs[i].Res.Throughput
		if prefix, ok := strings.CutSuffix(c.Group, "/parallel"); ok && c.Role == "baseline" {
			pairs = append(pairs, prefix)
		}
	}
	worst := 0.0
	for _, prefix := range pairs {
		ser := tp[prefix+"/serial|hi"] / tp[prefix+"/serial|baseline"]
		par := tp[prefix+"/parallel|hi"] / tp[prefix+"/parallel|baseline"]
		if e := math.Abs(par-ser) / ser * 100; e > worst && !math.IsNaN(e) {
			worst = e
		}
	}
	return worst
}
