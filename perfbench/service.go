package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"offloadsim/internal/cluster"
	"offloadsim/internal/server"
)

// fleet is an in-process 2-replica offsimd deployment on loopback HTTP,
// each replica configured as cmd/offsimd's default flags configure it,
// except for one worker per replica.
type fleet struct {
	addrs []string
	srvs  []*server.Server
	https []*http.Server
	wg    sync.WaitGroup
}

const fleetReplicas = 2

func startFleet() (*fleet, error) {
	f := &fleet{}
	lns := make([]net.Listener, fleetReplicas)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, fmt.Errorf("listen: %w", err)
		}
		lns[i] = ln
		f.addrs = append(f.addrs, "http://"+ln.Addr().String())
	}
	for i := range lns {
		var peers []string
		for j, a := range f.addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		mem, err := cluster.ParseMembership(f.addrs[i], peers)
		if err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			f.stop()
			return nil, err
		}
		// cmd/offsimd defaults: 256-deep queue, 4096-entry cache, 2m
		// job timeout, tracing on with a 1024-trace store, text logs at
		// info. The logs are formatted as shipped and then discarded.
		srv := server.New(server.Options{
			QueueSize:    256,
			Workers:      1,
			JobTimeout:   2 * time.Minute,
			CacheEntries: 4096,
			Cluster:      server.ClusterOptions{Membership: mem},
			Obs: server.ObsOptions{
				Tracing:   true,
				MaxTraces: 1024,
				Logger:    slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo})),
			},
		})
		srv.Start()
		hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
		f.srvs = append(f.srvs, srv)
		f.https = append(f.https, hs)
		f.wg.Add(1)
		go func(ln net.Listener) {
			defer f.wg.Done()
			_ = hs.Serve(ln) // returns http.ErrServerClosed on stop
		}(lns[i])
	}
	return f, nil
}

// stop shuts every replica down and waits for its serve loop to exit.
func (f *fleet) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, hs := range f.https {
		_ = hs.Shutdown(ctx)
	}
	for _, s := range f.srvs {
		_ = s.Shutdown(ctx)
	}
	f.wg.Wait()
}

// jobReq is one generated client-A request.
type jobReq struct {
	Spec server.JobSpec
	// Repeat marks a spec copied from an earlier request.
	Repeat bool
}

// jobMix is the shape of a workload's client-A job stream: small jobs
// on its own profiles, 27% of them repeating an earlier spec so the
// cache tiers see hits while the median stays inside the miss
// population, ~10% sampled and ~5% traced. A fresh detailed spec runs at
// one of Cores user cores, with the per-core budget scaled so every job
// simulates 200k-500k instructions in all; OSCoreShare of fresh specs
// run on a 2-core OS cluster and ParallelShare on the quantum-parallel
// engine at 4 user cores.
type jobMix struct {
	Profiles      []string
	Cores         []int
	OSCoreShare   float64
	ParallelShare float64
}

// The mode shares apply to fresh specs; repeats copy untraced ones, so
// tracedShare is scaled up to reach ~5% of all jobs.
const (
	repeatShare  = 0.27
	sampledShare = 0.10
	tracedShare  = 0.07
)

// jobStream generates n client-A requests of mix from seed.
func jobStream(seed uint64, n int, mix jobMix) []jobReq {
	r := rand.New(rand.NewSource(int64(pointSeed(seed, 1000))))
	thresholds := []int{100, 1000, 10000}
	latencies := []int{100, 5000}
	var out, reusable []jobReq
	for len(out) < n {
		if len(reusable) > 0 && r.Float64() < repeatShare {
			prev := reusable[r.Intn(len(reusable))]
			out = append(out, jobReq{Spec: prev.Spec, Repeat: true})
			continue
		}
		n := thresholds[r.Intn(len(thresholds))]
		lat := latencies[r.Intn(len(latencies))]
		warm := uint64(0)
		total := uint64(200_000 + 10_000*r.Intn(31))
		s := pointSeed(seed, 2000+uint64(len(out)))
		spec := server.JobSpec{
			Workload:      mix.Profiles[r.Intn(len(mix.Profiles))],
			Policy:        "HI",
			Threshold:     &n,
			LatencyCycles: &lat,
			WarmupInstrs:  &warm,
			Seed:          &s,
		}
		cores := 1
		switch u := r.Float64(); {
		case u < sampledShare:
			spec.Mode = "sampled"
		case u < sampledShare+tracedShare:
			spec.Trace = true
		case u < sampledShare+tracedShare+mix.OSCoreShare:
			spec.OSCores = 2
		case u < sampledShare+tracedShare+mix.OSCoreShare+mix.ParallelShare:
			spec.Mode = "parallel"
			cores = 4
		}
		if spec.Mode == "" && cores == 1 {
			cores = mix.Cores[r.Intn(len(mix.Cores))]
		}
		if cores > 1 {
			spec.Cores = cores
		}
		measure := total / uint64(cores)
		spec.MeasureInstrs = &measure
		jr := jobReq{Spec: spec}
		out = append(out, jr)
		if !spec.Trace { // a traced job never reads the cache
			reusable = append(reusable, jr)
		}
	}
	return out
}

// sweepStream generates n client-B sweep requests over profiles from
// seed: each a 2×2 grid of points of 100k, 200k or 300k instructions at
// one seed. Every second sweep reuses an earlier sweep's seed, workloads
// and point size with its thresholds shifted by one, so exactly half of
// its points overlap the earlier sweep's. A job that lands behind a
// sweep point waits for it, so the point sizes spread the queue wait
// that sets the job latency tail.
func sweepStream(seed uint64, n int, profiles []string) []cluster.SweepRequest {
	r := rand.New(rand.NewSource(int64(pointSeed(seed, 3000))))
	thresholds := []int{100, 1000, 10000}
	normalize := false
	warm := uint64(0)
	var out []cluster.SweepRequest
	for i := 0; i < n; i++ {
		var wls []string
		var s, m uint64
		var a int
		if i%2 == 1 {
			prev := out[r.Intn(len(out))]
			wls, s, m = prev.Workloads, *prev.Seed, *prev.MeasureInstrs
			a = (slices.Index(thresholds, prev.Thresholds[0]) + 1) % len(thresholds)
		} else {
			p := r.Intn(len(profiles))
			wls = []string{profiles[p], profiles[(p+1+r.Intn(len(profiles)-1))%len(profiles)]}
			s = pointSeed(seed, 4000+uint64(i))
			m = uint64(100_000 * (1 + r.Intn(3)))
			a = r.Intn(len(thresholds))
		}
		ths := []int{thresholds[a], thresholds[(a+1)%len(thresholds)]}
		sv := s
		w := warm
		out = append(out, cluster.SweepRequest{
			Workloads:     wls,
			Thresholds:    ths,
			Latencies:     []int{100},
			WarmupInstrs:  &w,
			MeasureInstrs: &m,
			Seed:          &sv,
			Normalize:     &normalize,
			Concurrency:   1,
		})
	}
	return out
}

// jobOutcome is one completed client-A job.
type jobOutcome struct {
	Req     jobReq
	ID      string
	Replica string
	Cached  bool
	Latency float64 // ms, submit until result bytes in hand
	Result  []byte
	Err     error
}

// sweepOutcome is one completed client-B sweep.
type sweepOutcome struct {
	Req     cluster.SweepRequest
	ID      string
	Replica string
	Points  []cluster.PointResult
	Err     error
}

// serviceRun is what the service phase of one window observed. The
// phase runs in chunks between engine passes; the clients pick up the
// job and sweep streams where the previous chunk left them.
type serviceRun struct {
	Jobs   []jobOutcome
	Sweeps []sweepOutcome
	// Seconds is the phase's wall time, all of which client B is busy:
	// a chunk ends when its sweep in flight finishes. JobSeconds is the
	// part in which client A was busy, up to its last job of each chunk.
	// Each is the denominator of its own client's rate.
	Seconds, JobSeconds float64
	Calls               map[string][]float64 // per-endpoint client round trips, ms
	Before              map[string]float64   // /metrics summed over replicas
	After               map[string]float64

	f                *fleet
	jobs             []jobReq
	sweeps           []cluster.SweepRequest
	clientA, clientB *http.Client
}

// points counts the rows of the sweeps that completed.
func (r *serviceRun) points() int {
	n := 0
	for _, s := range r.Sweeps {
		if s.Err == nil {
			n += len(s.Points)
		}
	}
	return n
}

// latencies returns the latencies of successful jobs, optionally only
// those whose cache outcome matches *cached.
func (r *serviceRun) latencies(cached *bool) []float64 {
	var out []float64
	for _, j := range r.Jobs {
		if j.Err == nil && (cached == nil || j.Cached == *cached) {
			out = append(out, j.Latency)
		}
	}
	return out
}

// pollInterval is client A's fixed status-poll period.
const pollInterval = 2 * time.Millisecond

// minJobs is the job count a service window needs for a supported
// p99: ten samples beyond it.
const minJobs = 1000

// newServiceRun scrapes the fleet's counters before the first chunk.
func newServiceRun(f *fleet, jobs []jobReq, sweeps []cluster.SweepRequest) (*serviceRun, error) {
	r := &serviceRun{
		Calls:   map[string][]float64{},
		f:       f,
		jobs:    jobs,
		sweeps:  sweeps,
		clientA: &http.Client{Transport: &http.Transport{}, Timeout: 2 * time.Minute},
		clientB: &http.Client{Transport: &http.Transport{}, Timeout: 2 * time.Minute},
	}
	var err error
	r.Before, err = scrapeFleet(r.clientA, f.addrs)
	return r, err
}

// record notes one client-A round trip; only client A calls it.
func (r *serviceRun) record(name string, d time.Duration) {
	r.Calls[name] = append(r.Calls[name], float64(d.Nanoseconds())/1e6)
}

// chunk drives the fleet until budget has passed and at least
// jobsByEnd jobs have finished in all: client A runs its closed-loop
// job stream round-robin over the replicas, client B posts sweeps, and
// the chunk ends when client B's sweep in flight has finished too.
func (r *serviceRun) chunk(budget time.Duration, jobsByEnd int) error {
	start := time.Now()
	stopB := make(chan struct{})
	doneB := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stopB:
				doneB <- nil
				return
			default:
			}
			i := len(r.Sweeps)
			if i >= len(r.sweeps) {
				doneB <- fmt.Errorf("sweep stream of %d exhausted", len(r.sweeps))
				return
			}
			r.Sweeps = append(r.Sweeps, postSweep(r.clientB, r.f.addrs[i%len(r.f.addrs)], r.sweeps[i]))
		}
	}()
	var err error
	for time.Since(start) < budget || len(r.Jobs) < jobsByEnd {
		i := len(r.Jobs)
		if i >= len(r.jobs) {
			err = fmt.Errorf("job stream of %d exhausted", len(r.jobs))
			break
		}
		r.Jobs = append(r.Jobs, runJob(r.clientA, r.f.addrs[i%len(r.f.addrs)], r.jobs[i], r.record))
	}
	r.JobSeconds += time.Since(start).Seconds()
	close(stopB)
	if errB := <-doneB; err == nil {
		err = errB
	}
	r.Seconds += time.Since(start).Seconds()
	return err
}

// finish scrapes the fleet's counters after the last chunk.
func (r *serviceRun) finish() error {
	var err error
	r.After, err = scrapeFleet(r.clientA, r.f.addrs)
	r.clientA.CloseIdleConnections()
	r.clientB.CloseIdleConnections()
	return err
}

// runJob submits one job, polls its status until it finishes, fetches
// the result and, for a traced job, the trace.
func runJob(c *http.Client, addr string, jr jobReq, record func(string, time.Duration)) jobOutcome {
	o := jobOutcome{Req: jr}
	body, err := json.Marshal(jr.Spec)
	if err != nil {
		o.Err = err
		return o
	}
	t0 := time.Now()
	var st server.JobStatus
	code, raw, err := doCall(c, http.MethodPost, addr+"/v1/jobs", body, "submit", record)
	if err == nil && code != http.StatusOK && code != http.StatusAccepted {
		err = fmt.Errorf("submit: HTTP %d: %s", code, bytes.TrimSpace(raw))
	}
	if err == nil {
		err = json.Unmarshal(raw, &st)
	}
	if err != nil {
		o.Err = err
		return o
	}
	o.ID, o.Cached = st.ID, st.Cached
	o.Replica = addr
	if st.Replica != "" {
		o.Replica = st.Replica
	}
	for st.State != server.StateDone && st.State != server.StateFailed {
		time.Sleep(pollInterval)
		code, raw, err = doCall(c, http.MethodGet, o.Replica+"/v1/jobs/"+o.ID, nil, "status", record)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("status: HTTP %d", code)
		}
		if err == nil {
			err = json.Unmarshal(raw, &st)
		}
		if err != nil {
			o.Err = err
			return o
		}
	}
	if st.State == server.StateFailed {
		o.Err = fmt.Errorf("job %s failed: %s", o.ID, st.Error)
		return o
	}
	code, raw, err = doCall(c, http.MethodGet, o.Replica+"/v1/results/"+o.ID, nil, "result", record)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("result: HTTP %d", code)
	}
	if err != nil {
		o.Err = err
		return o
	}
	o.Result = raw
	o.Latency = float64(time.Since(t0).Nanoseconds()) / 1e6
	if jr.Spec.Trace {
		code, raw, err = doCall(c, http.MethodGet, o.Replica+"/v1/traces/"+o.ID+"?format=jsonl", nil, "trace_fetch", record)
		if err == nil && (code != http.StatusOK || len(raw) == 0) {
			err = fmt.Errorf("trace: HTTP %d, %d bytes", code, len(raw))
		}
		o.Err = err
	}
	return o
}

// doCall makes one HTTP round trip and records its duration.
func doCall(c *http.Client, method, url string, body []byte, name string, record func(string, time.Duration)) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	t0 := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, fmt.Errorf("%s: %w", name, err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	record(name, time.Since(t0))
	if err != nil {
		return 0, nil, fmt.Errorf("%s: reading body: %w", name, err)
	}
	return resp.StatusCode, raw, nil
}

// postSweep posts one sweep and reads its NDJSON stream: a header, one
// line per point, and a closing progress document.
func postSweep(c *http.Client, addr string, req cluster.SweepRequest) sweepOutcome {
	o := sweepOutcome{Req: req, Replica: addr}
	body, err := json.Marshal(req)
	if err != nil {
		o.Err = err
		return o
	}
	resp, err := c.Post(addr+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		o.Err = err
		return o
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		o.Err = fmt.Errorf("sweep: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
		return o
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	var hdr struct {
		SweepID string `json:"sweep_id"`
		Points  int    `json:"points"`
	}
	if !sc.Scan() {
		o.Err = errors.New("sweep: empty stream")
		return o
	}
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		o.Err = fmt.Errorf("sweep header: %w", err)
		return o
	}
	o.ID = hdr.SweepID
	var prog *cluster.Progress
	for sc.Scan() {
		line := sc.Bytes()
		if bytes.Contains(line, []byte(`"complete"`)) {
			var p cluster.Progress
			if err := json.Unmarshal(line, &p); err != nil {
				o.Err = fmt.Errorf("sweep progress: %w", err)
				return o
			}
			prog = &p
			continue
		}
		var pr cluster.PointResult
		if err := json.Unmarshal(line, &pr); err != nil {
			o.Err = fmt.Errorf("sweep row: %w", err)
			return o
		}
		o.Points = append(o.Points, pr)
	}
	if err := sc.Err(); err != nil {
		o.Err = fmt.Errorf("sweep stream: %w", err)
		return o
	}
	if prog == nil || !prog.Complete || prog.Done != hdr.Points {
		o.Err = fmt.Errorf("sweep %s: stream ended without a complete progress line", o.ID)
	} else if len(o.Points) != hdr.Points {
		o.Err = fmt.Errorf("sweep %s: %d rows for %d points", o.ID, len(o.Points), hdr.Points)
	}
	return o
}

// scrapeFleet reads /metrics from every replica and sums each series.
func scrapeFleet(c *http.Client, addrs []string) (map[string]float64, error) {
	sum := map[string]float64{}
	for _, a := range addrs {
		resp, err := c.Get(a + "/metrics")
		if err != nil {
			return nil, fmt.Errorf("scrape %s: %w", a, err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("scrape %s: %w", a, err)
		}
		for _, line := range strings.Split(string(raw), "\n") {
			if line == "" || line[0] == '#' {
				continue
			}
			i := strings.LastIndexByte(line, ' ')
			if i < 0 {
				continue
			}
			v, err := strconv.ParseFloat(line[i+1:], 64)
			if err != nil {
				continue
			}
			sum[line[:i]] += v
		}
	}
	return sum, nil
}

// histP50 estimates a Prometheus histogram's median over the interval
// between two scrapes, as the upper bound of the bucket holding it.
func histP50(before, after map[string]float64, name string) float64 {
	total := after[name+"_count"] - before[name+"_count"]
	if total <= 0 {
		return 0
	}
	type bucket struct{ le, n float64 }
	var bs []bucket
	prefix := name + `_bucket{le="`
	for k, v := range after {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		le, err := strconv.ParseFloat(strings.TrimSuffix(k[len(prefix):], `"}`), 64)
		if err != nil {
			continue // +Inf
		}
		bs = append(bs, bucket{le, v - before[k]})
	}
	best := 0.0
	for _, b := range bs {
		if b.n >= total/2 && (best == 0 || b.le < best) {
			best = b.le
		}
	}
	return best
}
