package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"

	"sllt/internal/cts"
	"sllt/internal/design"
	"sllt/internal/geom"
	"sllt/internal/obs"
	"sllt/internal/partition"
)

// span is one benchmark-side phase of a job: parse, build, cts, export on
// the offline path; submit, poll, fetch on the service path. Spans of one
// job share its ID.
type span struct {
	Job     string `json:"job"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
}

// tracer keeps the benchmark's spans in memory until the run ends. A nil
// tracer is the untraced mode: begin returns a no-op.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(job, name string) (end func()) {
	if t == nil {
		return func() {}
	}
	start := time.Now()
	return func() {
		dur := time.Since(start)
		t.mu.Lock()
		t.spans = append(t.spans, span{job, name, start.Sub(t.t0).Nanoseconds(), dur.Nanoseconds()})
		t.mu.Unlock()
	}
}

// total sums the durations of the named spans, in seconds.
func (t *tracer) total(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var ns int64
	for _, s := range t.spans {
		if s.Name == name {
			ns += s.DurNs
		}
	}
	return float64(ns) / 1e9
}

// totalJob sums the durations of one job's named spans, in seconds.
func (t *tracer) totalJob(job, name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var ns int64
	for _, s := range t.spans {
		if s.Job == job && s.Name == name {
			ns += s.DurNs
		}
	}
	return float64(ns) / 1e9
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// stageTimes is the flow's own span tree reduced to stage wall times, plus
// the kernel work counters, summed over the jobs added.
type stageTimes struct {
	partition, clusters, busy, timing, topNet float64 // seconds
	workers                                   int
	k                                         obs.KernelSnapshot
}

// add folds one job's run report into the totals.
func (s *stageTimes) add(rep *obs.Report) {
	s.workers = rep.Workers
	rep.Span.Walk(func(_ int, sp *obs.SpanJSON) {
		d := float64(sp.DurNs) / 1e9
		switch sp.Name {
		case "partition":
			s.partition += d
		case "clusters":
			s.clusters += d
		case "cluster":
			s.busy += d
		case "timing":
			s.timing += d
		case "top_net":
			s.topNet += d
		}
	})
	for _, m := range rep.Metrics {
		if c, ok := kernelCounter(&s.k, m.Name); ok {
			*c += int64(m.Value)
		}
	}
}

// kernelCounter maps a report's kernel metric name to its snapshot field.
func kernelCounter(k *obs.KernelSnapshot, name string) (*int64, bool) {
	switch name {
	case "kernel.partition.mcf_augments":
		return &k.MCFAugments, true
	case "kernel.partition.sa_proposed":
		return &k.SAProposed, true
	case "kernel.partition.sa_accepted":
		return &k.SAAccepted, true
	case "kernel.partition.kmeans_iters":
		return &k.KMeansIters, true
	case "kernel.dme.merges":
		return &k.DMEMerges, true
	case "kernel.dme.snakes":
		return &k.DMESnakes, true
	case "kernel.buffering.inserted":
		return &k.BufInserted, true
	case "kernel.buffering.decoupled":
		return &k.BufDecoupled, true
	case "kernel.rsmt.steiner_inserts":
		return &k.SteinerInserts, true
	case "kernel.grid.queries":
		return &k.GridQueries, true
	case "kernel.grid.ring_steps":
		return &k.GridRingSteps, true
	}
	return nil, false
}

func (s *stageTimes) set(m metricSet) {
	m.set("partition.s", "s", s.partition)
	m.set("clusters.s", "s", s.clusters)
	m.set("clusters.busy_s", "s", s.busy)
	if s.clusters > 0 && s.workers > 0 {
		m.set("clusters.parallel_eff", "1", s.busy/(s.clusters*float64(s.workers)))
	}
	m.set("timing.s", "s", s.timing)
	m.set("top_net.s", "s", s.topNet)
	m.set("kernel.partition.mcf_augments", "count", float64(s.k.MCFAugments))
	m.set("kernel.partition.sa_proposed", "count", float64(s.k.SAProposed))
	if s.k.SAProposed > 0 {
		m.set("partition.sa_accept_ratio", "1", float64(s.k.SAAccepted)/float64(s.k.SAProposed))
	}
	m.set("kernel.partition.kmeans_iters", "count", float64(s.k.KMeansIters))
	m.set("kernel.dme.merges", "count", float64(s.k.DMEMerges))
	m.set("kernel.dme.snakes", "count", float64(s.k.DMESnakes))
	m.set("kernel.buffering.inserted", "count", float64(s.k.BufInserted))
	m.set("kernel.buffering.decoupled", "count", float64(s.k.BufDecoupled))
	m.set("kernel.rsmt.steiner_inserts", "count", float64(s.k.SteinerInserts))
	// Every query visits its first ring; each extension is one more ring.
	if q := s.k.GridQueries; q > 0 {
		m.set("grid.hit_ratio", "1", float64(q)/float64(q+s.k.GridRingSteps))
	}
}

// probeTimes is the level-0 partition probe: the three partition kernels
// timed one after another on a design's own sinks.
type probeTimes struct {
	kmeans, assign, sa float64 // seconds
	designs, mcf       int
}

// probeLevel0 replays the first partition level of cts.Run for d under
// opts — same k, same k-means restarts and seeds, same assignment and SA
// parameters — timing k-means, balanced assignment and SA refinement
// separately. It returns the assignment method that ran.
func (pt *probeTimes) probeLevel0(d *design.Design, opts cts.Options) string {
	sinks := d.Net().Sinks
	pts := make([]geom.Point, len(sinks))
	caps := make([]float64, len(sinks))
	var capTotal float64
	for i, s := range sinks {
		pts[i] = s.Loc
		caps[i] = s.Cap
		capTotal += s.Cap
	}
	k := len(pts)/opts.Cons.MaxFanout + 1
	if byCap := int(capTotal/(opts.Cons.MaxCap*0.5)) + 1; byCap > k {
		k = byCap
	}
	if k > len(pts) {
		k = len(pts)
	}

	start := time.Now()
	centers := bestClustering(pts, k, opts)
	pt.kmeans += time.Since(start).Seconds()

	start = time.Now()
	assign, method := partition.BalancedAssignK(pts, centers, opts.Cons.MaxFanout, nil)
	pt.assign += time.Since(start).Seconds()

	if opts.UseSA {
		sa := partition.DefaultSAOptions(opts.Seed)
		sa.Iters = opts.SAIters
		if min := 2 * len(pts); sa.Iters < min {
			sa.Iters = min
		}
		sa.CPerUm = opts.Tech.CPerUm
		sa.MaxCap = opts.Cons.MaxCap
		sa.MaxWL = opts.Cons.MaxWL
		sa.MaxFanout = opts.Cons.MaxFanout
		start = time.Now()
		partition.RefineSA(pts, caps, k, assign, sa)
		pt.sa += time.Since(start).Seconds()
	}
	pt.designs++
	if method == "mcf" {
		pt.mcf++
	}
	return method
}

// bestClustering mirrors the flow's level-0 clustering: KMeansRestarts
// k-means runs split over the worker budget, best sampled silhouette wins.
func bestClustering(pts []geom.Point, k int, opts cts.Options) []geom.Point {
	restarts := opts.KMeansRestarts
	if restarts < 1 {
		restarts = 1
	}
	base := opts.Seed
	if restarts == 1 {
		c, _ := partition.KMeansPK(pts, k, 24, base, opts.Workers, nil)
		return c
	}
	inner := opts.Workers / restarts
	if inner < 1 {
		inner = 1
	}
	type scored struct {
		centers []geom.Point
		score   float64
	}
	results := make([]scored, restarts)
	var wg sync.WaitGroup
	for r := 0; r < restarts; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c, a := partition.KMeansPK(pts, k, 24, base+int64(r)*1009, inner, nil)
			sp, sa := silhouetteSample(pts, a, 2500)
			results[r] = scored{c, partition.SilhouetteP(sp, sa, k, inner)}
		}(r)
	}
	wg.Wait()
	best := results[0]
	for _, r := range results[1:] {
		if r.score > best.score {
			best = r
		}
	}
	return best.centers
}

// silhouetteSample is the flow's stride subsample for silhouette scoring.
func silhouetteSample(pts []geom.Point, assign []int, max int) ([]geom.Point, []int) {
	if len(pts) <= max {
		return pts, assign
	}
	stride := (len(pts) + max - 1) / max
	var sp []geom.Point
	var sa []int
	for i := 0; i < len(pts); i += stride {
		sp = append(sp, pts[i])
		sa = append(sa, assign[i])
	}
	return sp, sa
}

func (pt *probeTimes) set(m metricSet) {
	m.set("partition.kmeans_s", "s", pt.kmeans)
	m.set("partition.assign_s", "s", pt.assign)
	m.set("partition.sa_s", "s", pt.sa)
	if pt.designs > 0 {
		m.set("partition.mcf_share", "1", float64(pt.mcf)/float64(pt.designs))
	}
}

// setIO reports the I/O layers from the traced offline jobs' spans: parse
// (LEF and DEF, with the DEF bytes of places for throughput), design build
// and export, each summed over the jobs.
func setIO(m metricSet, tr *tracer, places []*placement) {
	parse := tr.total("parse")
	var n int64
	for _, p := range places {
		n += p.defBytes
	}
	m.set("lefdef.parse_s", "s", parse)
	m.set("lefdef.parse_mb_per_s", "MB/s", float64(n)/1e6/parse)
	m.set("design.build_s", "s", tr.total("build"))
	m.set("cts.export_s", "s", tr.total("export"))
}
