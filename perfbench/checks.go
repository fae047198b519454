package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"offloadsim"
	"offloadsim/internal/cluster"
	"offloadsim/internal/server"
	"offloadsim/internal/sim"
)

// opCount tallies operations attempted and failed, with the first few
// failure reasons for the report.
type opCount struct {
	Attempted int
	Failed    int
	Errors    []string
}

func (o *opCount) fail(err error) {
	o.Failed++
	if len(o.Errors) < 10 {
		o.Errors = append(o.Errors, err.Error())
	}
}

func (o *opCount) merge(p opCount) {
	o.Attempted += p.Attempted
	for _, e := range p.Errors {
		if len(o.Errors) < 10 {
			o.Errors = append(o.Errors, e)
		}
	}
	o.Failed += p.Failed
}

// goldenCells rebuilds cells of the committed golden corpus
// (testdata/golden, written by the repository's golden test at seed 1)
// that cover every engine mode the benchmark times: detailed,
// interval-sampled, quantum-parallel and the K=4 asynchronous OS-core
// cluster, for one server and one compute profile.
func goldenCells() []cell {
	var cells []cell
	for _, wl := range []string{"apache", "blackscholes"} {
		base := offloadsim.DefaultConfig(mustProfile(wl))
		base.WarmupInstrs = 200_000
		base.MeasureInstrs = 500_000
		base.Seed = 1
		base.Policy = offloadsim.HardwarePredictor
		base.Threshold = 100
		cells = append(cells, cell{Name: wl + "_static100_detailed", Mode: modeDetailed, Cfg: base})

		s := base
		s.Sampling = offloadsim.DefaultSampling()
		s.Sampling.IntervalInstrs = 10_000
		s.Sampling.Ratio = 10
		s.Sampling.WarmupTailInstrs = 100_000
		cells = append(cells, cell{Name: wl + "_static100_sampled", Mode: modeSampled, Cfg: s})

		p := base
		p.UserCores = 4
		p.Parallel = offloadsim.DefaultParallel()
		cells = append(cells, cell{Name: wl + "_static100_parallel", Mode: modeParallel, Cfg: p})

		o := base
		o.UserCores = 4
		o.OSCores = offloadsim.OSCores{
			Enabled:   true,
			K:         4,
			Affinity:  "trap=0,identity=0,file=1,network=2,*=3",
			Asymmetry: "1,1,0.5,0.5",
			Async:     true,
			DepthN:    200,
			Rebalance: true,
		}
		cells = append(cells, cell{Name: wl + "_oscore4_async_detailed", Mode: modeDetailed, Cfg: o})
	}
	return cells
}

// checkGolden runs the golden cells and compares each result, in the
// corpus encoding, byte for byte with its committed file under dir.
func checkGolden(dir string) opCount {
	var ops opCount
	for _, c := range goldenCells() {
		ops.Attempted++
		want, err := os.ReadFile(filepath.Join(dir, c.Name+".json"))
		if err != nil {
			ops.fail(fmt.Errorf("golden %s: %w", c.Name, err))
			continue
		}
		r, err := runCell(c)
		if err != nil {
			ops.fail(err)
			continue
		}
		got, err := json.MarshalIndent(r.Res, "", "  ")
		if err != nil {
			ops.fail(err)
			continue
		}
		if !bytes.Equal(append(got, '\n'), want) {
			ops.fail(fmt.Errorf("golden %s: result differs from the committed corpus", c.Name))
		}
	}
	return ops
}

// directRunner runs job specs straight on the engine, once per
// canonical key, for comparison with what the fleet served.
type directRunner struct {
	mu   sync.Mutex
	done map[string]directResult
}

type directResult struct {
	bytes []byte
	err   error
}

func newDirectRunner() *directRunner {
	return &directRunner{done: map[string]directResult{}}
}

// specKey translates a job spec as offsimd does and returns its
// canonical cache key.
func specKey(spec server.JobSpec) (string, sim.Config, error) {
	cfg, err := spec.Config()
	if err != nil {
		return "", cfg, err
	}
	key, err := sim.CanonicalKey(cfg)
	return key, cfg, err
}

// prepare runs every not-yet-seen spec, spread over workers goroutines.
func (d *directRunner) prepare(specs []server.JobSpec, workers int) {
	type item struct {
		key string
		cfg sim.Config
	}
	var todo []item
	seen := map[string]bool{}
	d.mu.Lock()
	for _, s := range specs {
		key, cfg, err := specKey(s)
		if err != nil || seen[key] {
			continue
		}
		if _, ok := d.done[key]; ok {
			continue
		}
		seen[key] = true
		todo = append(todo, item{key, cfg})
	}
	d.mu.Unlock()
	ch := make(chan item)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range ch {
				mode := modeDetailed
				switch {
				case it.cfg.Sampling.Enabled:
					mode = modeSampled
				case it.cfg.Parallel.Enabled:
					mode = modeParallel
				}
				r, err := runCell(cell{Name: it.key, Mode: mode, Cfg: it.cfg})
				d.mu.Lock()
				d.done[it.key] = directResult{bytes: r.Bytes, err: err}
				d.mu.Unlock()
			}
		}()
	}
	for _, it := range todo {
		ch <- it
	}
	close(ch)
	wg.Wait()
}

func (d *directRunner) get(spec server.JobSpec) (directResult, error) {
	key, _, err := specKey(spec)
	if err != nil {
		return directResult{}, err
	}
	d.mu.Lock()
	r, ok := d.done[key]
	d.mu.Unlock()
	if !ok {
		return directResult{}, fmt.Errorf("no direct run for key %s", key)
	}
	return r, r.err
}

// sweepPointSpec is the job spec offsimd builds for one sweep point.
func sweepPointSpec(req cluster.SweepRequest, p cluster.Point) server.JobSpec {
	n, lat := p.Threshold, p.Latency
	return server.JobSpec{
		Workload:      p.Workload,
		Policy:        p.Policy,
		Threshold:     &n,
		LatencyCycles: &lat,
		WarmupInstrs:  req.WarmupInstrs,
		MeasureInstrs: req.MeasureInstrs,
		Seed:          req.Seed,
		Mode:          req.Mode,
	}
}

// sweepPoints enumerates a request's grid in the fleet's order:
// workloads × policies × thresholds × latencies.
func sweepPoints(req cluster.SweepRequest) []cluster.Point {
	pols := req.Policies
	if len(pols) == 0 {
		pols = []string{"HI"}
	}
	var out []cluster.Point
	for _, wl := range req.Workloads {
		for _, pol := range pols {
			for _, n := range req.Thresholds {
				for _, lat := range req.Latencies {
					out = append(out, cluster.Point{Index: len(out), Workload: wl, Policy: pol, Threshold: n, Latency: lat})
				}
			}
		}
	}
	return out
}

// checkService holds every served job and sweep row to the engine and
// to each other: a job's result bytes must equal a direct run of the
// same spec; a sweep's rows must arrive complete, in index order and
// exactly once, and a key must yield the same row in every sweep. A
// refused (429) or failed request is a failed operation like a wrong
// result.
func checkService(run *serviceRun, d *directRunner, workers int) (jobs, points opCount) {
	var specs []server.JobSpec
	for _, j := range run.Jobs {
		specs = append(specs, j.Req.Spec)
	}
	d.prepare(specs, workers)

	for _, j := range run.Jobs {
		jobs.Attempted++
		if j.Err != nil {
			jobs.fail(j.Err)
			continue
		}
		want, err := d.get(j.Req.Spec)
		if err != nil {
			jobs.fail(err)
			continue
		}
		if !bytes.Equal(want.bytes, j.Result) {
			jobs.fail(fmt.Errorf("job %s: served result differs from a direct engine run", j.ID))
		}
	}
	rows := map[string][]byte{}
	for _, s := range run.Sweeps {
		grid := sweepPoints(s.Req)
		if s.Err != nil {
			points.Attempted += len(grid)
			for range grid {
				points.fail(s.Err)
			}
			continue
		}
		points.merge(checkSweepRows(s, grid, rows))
	}
	return jobs, points
}

// checkSweepRows checks one sweep's stream against its grid; rows maps
// each point's canonical key to the first row seen for it.
func checkSweepRows(s sweepOutcome, points []cluster.Point, rows map[string][]byte) opCount {
	var ops opCount
	ops.Attempted = len(points)
	if len(s.Points) != len(points) {
		ops.fail(fmt.Errorf("sweep %s: %d rows for %d points", s.ID, len(s.Points), len(points)))
		ops.Failed = len(points)
		return ops
	}
	for i, pr := range s.Points {
		p := points[i]
		if pr.Index != i || pr.Workload != p.Workload || pr.Threshold != p.Threshold || pr.OneWay != p.Latency {
			ops.fail(fmt.Errorf("sweep %s: row %d is point %d (%s N=%d), want %s N=%d", s.ID, i, pr.Index, pr.Workload, pr.Threshold, p.Workload, p.Threshold))
			continue
		}
		if pr.Status != "done" || pr.Row == nil {
			ops.fail(fmt.Errorf("sweep %s: point %d %s: %s", s.ID, i, pr.Status, pr.Error))
			continue
		}
		key, _, err := specKey(sweepPointSpec(s.Req, p))
		if err != nil {
			ops.fail(err)
			continue
		}
		row, _ := json.Marshal(pr.Row)
		if prev, ok := rows[key]; !ok {
			rows[key] = row
		} else if !bytes.Equal(prev, row) {
			ops.fail(fmt.Errorf("sweep %s: point %d row differs from an earlier row of the same key", s.ID, i))
		}
	}
	return ops
}
