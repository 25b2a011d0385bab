package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"sllt/internal/cache"
	"sllt/internal/cts"
	"sllt/internal/designgen"
	"sllt/internal/obs"
	"sllt/internal/server"
)

// The open-loop schedule of service_replay repeats one period: a
// placement never sent before (cold) is due at the start of the period,
// then warmPerCold resubmissions of placements already sent (warm) are due
// warmGap apart, the first coldGap after the cold one. On a 2-core host a
// cold job takes about 1.4 s of runner time and a warm one about 0.16 s, so
// the gaps leave every job about 1.7x headroom before it would wait behind
// the one ahead of it. Latencies then measure each job's own service, and a
// slower host moves them in proportion rather than by a queue's amplified
// wait. The period offers freshEvery jobs in coldGap + warmPerCold*warmGap,
// 1.74 jobs/s, about 46% of the 3.8 jobs/s the runner sustains on this mix.
const (
	warmPerCold = 11
	freshEvery  = warmPerCold + 1
	coldGap     = 2500 * time.Millisecond
	warmGap     = 400 * time.Millisecond
	period      = coldGap + warmPerCold*warmGap
)

// offeredRate is the schedule's mean arrival rate, in jobs per second.
var offeredRate = float64(freshEvery) / period.Seconds()

// dueOffset is when submission i is due, from the start of the replay.
func dueOffset(i int) time.Duration {
	d := time.Duration(i/freshEvery) * period
	if j := i % freshEvery; j > 0 {
		d += coldGap + time.Duration(j-1)*warmGap
	}
	return d
}

// refIdle is the idle time before the next due job that a host-speed
// sample needs. A sample takes 60-90 ms, so one fits after most warm jobs
// and ends well before the next is due.
const refIdle = 200 * time.Millisecond

// pollEvery is how often the client polls a job's status.
const pollEvery = 2 * time.Millisecond

// service replays a job mix against an in-process daemon — server.New with
// the daemon's defaults and a shared stage cache — over loopback HTTP.
type service struct {
	dir     string
	lefPath string
	places  []*placement // distinct placements, in first-submission order
	bodies  [][]byte     // POST /jobs bodies, index-parallel with places
	plan    []int        // placement index of each submission, in order

	store   *cache.Cache
	srv     *server.Server
	httpSrv *http.Server
	base    string // http://127.0.0.1:port
	client  *http.Client
}

func (s *service) setup(seed int64, seconds float64, dir string) error {
	s.close()
	s.dir = dir
	var err error
	if s.lefPath, err = writeLEF(dir); err != nil {
		return err
	}
	lef, err := os.ReadFile(s.lefPath)
	if err != nil {
		return err
	}

	// Every submission due within the run, and at least two periods.
	n := 2 * freshEvery
	for dueOffset(n).Seconds() < seconds {
		n++
	}
	rng := rand.New(rand.NewSource(seed))
	s.plan = make([]int, n)
	for i := range s.plan {
		if i%freshEvery == 0 {
			s.plan[i] = i / freshEvery
		} else {
			s.plan[i] = rng.Intn(i/freshEvery + 1)
		}
	}

	spec, err := designgen.FindSpec("ethernet")
	if err != nil {
		return err
	}
	s.places, s.bodies = nil, nil
	var g designgen.Generator
	for i := 0; i < (n+freshEvery-1)/freshEvery; i++ {
		spec.Name = fmt.Sprintf("ethernet_%02d", i)
		p, err := generate(&g, spec, placementSeed(i), dir)
		if err != nil {
			return err
		}
		def, err := os.ReadFile(p.defPath)
		if err != nil {
			return err
		}
		body, err := json.Marshal(server.JobRequest{LEF: string(lef), DEF: string(def)})
		if err != nil {
			return err
		}
		s.places = append(s.places, p)
		s.bodies = append(s.bodies, body)
	}
	return s.start()
}

// start brings up a fresh daemon and cache on a loopback port.
func (s *service) start() error {
	store, err := cache.New(cache.Config{})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.store = store
	s.srv = server.New(server.Config{Cache: store})
	s.httpSrv = &http.Server{Handler: s.srv.Handler()}
	go s.httpSrv.Serve(ln)
	s.base = "http://" + ln.Addr().String()
	// One connection submits, one polls and fetches: never more than the
	// host has cores.
	s.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     2,
		MaxIdleConnsPerHost: 2,
		DisableCompression:  true,
	}}
	return nil
}

// close stops the daemon, waiting for its runners and connections to end.
func (s *service) close() {
	if s.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// A drain or shutdown that runs out of time still ends here: Close
	// cancels whatever is left and waits for the runners.
	_ = s.srv.Drain(ctx)
	s.srv.Close()
	_ = s.httpSrv.Shutdown(ctx)
	s.client.CloseIdleConnections()
	s.srv = nil
}

// submission is one job of the replay, as the client saw it.
type submission struct {
	i        int
	id       string
	due      time.Time
	late     float64 // seconds the generator ran behind the due time
	submit   float64 // seconds spent in POST /jobs
	err      error
	status   server.JobStatus
	fetched  time.Time
	latency  float64 // due time to DEF fetched, seconds
	fetch    float64 // seconds spent in GET /jobs/{id}/def
	digest   [32]byte
	def      []byte // kept for each placement's first (cold) job only
	liveHeap uint64
	report   *obs.Report // the daemon's run report, traced replays only
}

// replay runs the open loop over the first n planned jobs: a generator
// submits each at its due time while the main goroutine follows the jobs in
// order (the daemon's single runner completes them FIFO), polls each to a
// terminal state and fetches its DEF.
func (s *service) replay(tr *tracer, hs *hostSpeed, n int) []*submission {
	subs := make(chan *submission, n)
	t0 := time.Now().Add(50 * time.Millisecond)
	go func() {
		for i, pi := range s.plan[:n] {
			due := t0.Add(dueOffset(i))
			time.Sleep(time.Until(due))
			sub := &submission{i: i, due: due, late: time.Since(due).Seconds()}
			sub.id = fmt.Sprintf("req-%04d", i)
			end := tr.begin(sub.id, "submit")
			start := time.Now()
			st, err := s.post(s.bodies[pi])
			sub.submit = time.Since(start).Seconds()
			end()
			sub.err = err
			sub.status = st
			subs <- sub
		}
		close(subs)
	}()

	var out []*submission
	seen := make([]bool, len(s.places))
	for sub := range subs {
		out = append(out, sub)
		if sub.err != nil {
			continue
		}
		end := tr.begin(sub.id, "poll")
		sub.status, sub.err = s.await(sub.status.JobID)
		end()
		if sub.err != nil {
			continue
		}
		end = tr.begin(sub.id, "fetch")
		start := time.Now()
		def, err := s.get("/jobs/" + sub.status.JobID + "/def")
		sub.fetch = time.Since(start).Seconds()
		end()
		sub.fetched = time.Now()
		sub.latency = sub.fetched.Sub(sub.due).Seconds()
		sub.liveHeap = readRuntime().live
		if sub.err = err; err != nil {
			continue
		}
		sub.digest = sha256.Sum256(def)
		if tr != nil {
			end = tr.begin(sub.id, "report")
			sub.report, sub.err = s.report(sub.status.JobID)
			end()
		}
		if pi := s.plan[sub.i]; !seen[pi] {
			seen[pi] = true
			sub.def = def
		}
		if hs != nil && sub.i+1 < n && time.Until(t0.Add(dueOffset(sub.i+1))) > refIdle {
			hs.sample()
		}
	}
	return out
}

func (s *service) report(id string) (*obs.Report, error) {
	data, err := s.get("/jobs/" + id + "/report")
	if err != nil {
		return nil, err
	}
	rep := &obs.Report{}
	return rep, json.Unmarshal(data, rep)
}

func (s *service) post(body []byte) (server.JobStatus, error) {
	var st server.JobStatus
	resp, err := s.client.Post(s.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return st, err
	}
	if resp.StatusCode != http.StatusAccepted {
		return st, fmt.Errorf("submit refused: %s: %s", resp.Status, bytes.TrimSpace(data))
	}
	return st, json.Unmarshal(data, &st)
}

func (s *service) get(path string) ([]byte, error) {
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return data, nil
}

// await polls a job until it is terminal; anything but done is an error.
func (s *service) await(id string) (server.JobStatus, error) {
	var st server.JobStatus
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		data, err := s.get("/jobs/" + id)
		if err != nil {
			return st, err
		}
		if err := json.Unmarshal(data, &st); err != nil {
			return st, err
		}
		switch st.State {
		case server.StateDone:
			return st, nil
		case server.StateFailed, server.StateCancelled:
			return st, fmt.Errorf("job %s %s: %s", id, st.State, st.Error)
		}
		time.Sleep(pollEvery)
	}
	return st, fmt.Errorf("job %s: not done after 120 s", id)
}

func (s *service) run(seconds float64, tr *tracer, hs *hostSpeed) *outcome {
	out := &outcome{metrics: metricSet{}}
	base := settledLive()
	if tr != nil {
		s.traced(tr, out)
		return out
	}
	// The replay's CPU time leaves out the host-speed samples taken in it.
	rt0, cpu0, ref0 := readRuntime(), cpuSeconds(), hs.spent
	subs := s.replay(nil, hs, len(s.plan))
	rt1, cpu := readRuntime(), cpuSeconds()-cpu0-(hs.spent-ref0)
	qs := s.check(subs, nil, out)

	var lat []float64
	var sinks, misses int
	var peak uint64
	for _, sub := range subs {
		if sub.err != nil {
			continue
		}
		lat = append(lat, sub.latency)
		sinks += len(s.places[s.plan[sub.i]].sinkPins)
		peak = max(peak, sub.liveHeap)
		if qs[s.plan[sub.i]].misses() {
			misses++
		}
	}
	setQoR(out.metrics, qs)
	hs.sample()
	out.metrics.set("sinks_per_cpu_s", "sinks/cpu_s", float64(sinks)/(cpu*hs.cpuScale()))
	out.metrics.set("job_p50_s", "s", median(lat)*hs.wallScale())
	tv, tp := tail(lat)
	out.metrics.set("job_tail_s", "s", tv*hs.wallScale())
	out.metrics.set("peak_heap_mb", "MB", (float64(peak)-float64(base))/mb)
	var late []float64
	for _, sub := range subs {
		late = append(late, sub.late)
	}
	fmt.Printf("perfbench: %d jobs at %.2f/s (%d placements), measured latency p50 %.4fs and tail %s %.4fs over %d samples, %.3f CPU s, generator late by %.4fs at most, alloc %.0f MB, %d jobs miss a constraint, failed_share %.3f\n",
		len(subs), offeredRate, len(s.places), median(lat), tp, tv, len(lat), cpu, maxOf(late), float64(rt1.allocs-rt0.allocs)/mb,
		misses, float64(out.failed+misses)/float64(out.attempted))
	return out
}

// check verifies every job: it completed, every resubmission's DEF is
// byte-identical to its placement's cold DEF, and that cold DEF is
// byte-identical to the offline pipeline's DEF, whose tree and re-parsed
// clock nets pass the output checks. It returns the offline QoR of each
// placement, index-parallel with s.places, which the service's
// byte-identical DEFs share.
func (s *service) check(subs []*submission, tr *tracer, out *outcome) []qor {
	cold := make([]*submission, len(s.places))
	for _, sub := range subs {
		out.attempted++
		if sub.err != nil {
			out.fail("%s: %v", sub.id, sub.err)
			continue
		}
		pi := s.plan[sub.i]
		switch {
		case sub.def != nil:
			cold[pi] = sub
		case cold[pi] == nil:
			out.fail("%s: warm job of %s without a cold job", sub.id, s.places[pi].name)
		case sub.digest != cold[pi].digest:
			out.fail("%s: warm DEF of %s differs from its cold DEF", sub.id, s.places[pi].name)
		}
	}
	qs := make([]qor, len(s.places))
	for pi, p := range s.places {
		outPath := filepath.Join(s.dir, p.name+".out.def")
		opts := cts.DefaultOptions()
		opts.Workers = workers()
		j, err := runFlowJob(p, s.lefPath, outPath, opts, tr, "offline-"+p.name)
		if err != nil {
			out.fail("offline %s: %v", p.name, err)
			continue
		}
		qs[pi] = qorOf(j.res.Report)
		if err := checkTree(p.name, j.res); err != nil {
			out.fail("offline %v", err)
		}
		data, err := os.ReadFile(outPath)
		if err != nil {
			out.fail("offline %s: %v", p.name, err)
			continue
		}
		digest, err := checkDEF(p, data)
		if err != nil {
			out.fail("offline %v", err)
		}
		if c := cold[pi]; c != nil && !bytes.Equal(c.def, data) {
			out.fail("%s: service DEF differs from the offline pipeline's", p.name)
		}
		fmt.Printf("perfbench: %-11s sinks=%-6d skew=%.1fps max_stage_cap=%.1ffF def_sha256=%s\n",
			p.name, len(p.sinkPins), j.res.Report.Skew, j.res.Report.MaxStgCap, digest)
	}
	return qs
}

// traced is the per-layer run: a plain replay of the first half of the plan
// for the tracing overhead, then a fresh daemon and cache and the whole
// replay with the benchmark's spans on, read back through the job status
// timestamps, /stats and the cache's own counters.
func (s *service) traced(tr *tracer, out *outcome) {
	m := zeroPerLayer()
	out.metrics = m
	plain := s.replay(nil, nil, len(s.plan)/2)
	for _, sub := range plain {
		out.attempted++
		if sub.err != nil {
			out.fail("%s: %v", sub.id, sub.err)
		}
	}
	s.close()
	if err := s.start(); err != nil {
		out.fail("restart: %v", err)
		return
	}
	rt0 := readRuntime()
	subs := s.replay(tr, nil, len(s.plan))
	rt1 := readRuntime()

	var plainLat, lat, wait, warm, cold, submit, fetch, late []float64
	for i, sub := range plain {
		plainLat = append(plainLat, sub.latency)
		lat = append(lat, subs[i].latency) // the same jobs, traced
	}
	for _, sub := range subs {
		submit = append(submit, sub.submit)
		fetch = append(fetch, sub.fetch)
		late = append(late, sub.late)
		st := sub.status
		wait = append(wait, float64(st.StartedNs-st.SubmittedNs)/1e9)
		if svc := float64(st.DoneNs-st.StartedNs) / 1e9; sub.i%freshEvery == 0 {
			cold = append(cold, svc)
		} else {
			warm = append(warm, svc)
		}
	}
	m.set("obs.overhead_ratio", "1", mean(lat)/mean(plainLat))
	m.set("server.queue_wait_s", "s", median(wait))
	m.set("server.service_warm_s", "s", median(warm))
	m.set("server.service_cold_s", "s", median(cold))
	m.set("server.submit_s", "s", median(submit))
	m.set("server.fetch_s", "s", median(fetch))
	m.set("server.generator_late_s", "s", maxOf(late))

	var decode []float64
	for _, body := range s.bodies {
		start := time.Now()
		if _, err := server.DecodeJobRequest(body); err != nil {
			out.fail("decode: %v", err)
		}
		decode = append(decode, time.Since(start).Seconds())
	}
	m.set("server.decode_s", "s", median(decode))

	if data, err := s.get("/stats"); err != nil {
		out.fail("stats: %v", err)
	} else {
		var st server.Stats
		if err := json.Unmarshal(data, &st); err != nil {
			out.fail("stats: %v", err)
		}
		m.set("server.shed", "count", float64(st.Shed))
		m.set("server.jobs_retained", "count", float64(st.Jobs))
	}
	cs := s.store.Stats()
	m.set("cache.cluster_build.hit_ratio", "1", cs.Stages["cluster_build"].HitRate())
	m.set("cache.partition.hit_ratio", "1", cs.Stages["partition"].HitRate())
	total := cs.Total()
	m.set("cache.bytes_written_mb", "MB", float64(total.BytesWritten)/mb)
	m.set("cache.evictions", "count", float64(total.Evictions))

	n := uint64(max(1, len(subs)))
	m.set("runtime.alloc_mb", "MB", float64((rt1.allocs-rt0.allocs)/n)/mb)
	m.set("runtime.gc_cpu_s", "s", (rt1.gcCPU-rt0.gcCPU)/float64(n))
	m.set("runtime.gc_cycles", "count", float64(rt1.cycles-rt0.cycles)/float64(n))

	qs := s.check(subs, tr, out)
	var st stageTimes
	for _, sub := range subs {
		if sub.report != nil {
			st.add(sub.report)
		}
	}
	st.set(m)
	// The daemon does not span its parse and export; the offline check runs
	// the same readers and writer on the same placements, traced.
	setIO(m, tr, s.places)
	m.set("qor.miss_share", "1", float64(setQoR(metricSet{}, qs))/float64(max(1, len(qs))))
}
