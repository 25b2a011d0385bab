package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"sllt/internal/cts"
	"sllt/internal/design"
	"sllt/internal/designgen"
	"sllt/internal/lefdef"
	"sllt/internal/obs"
)

// batch is an offline workload: a fixed list of placements run serially,
// each job parse → FromLEFDEF → cts.Run → export, DEF on disk in and out.
type batch struct {
	specs     []designgen.Spec
	options   func() cts.Options
	companion *designgen.Spec // traced runs only: the half-size growth probe
	reference int             // traced runs only: the placement timed untraced and traced for obs.overhead_ratio

	dir     string
	lefPath string
	inputs  []*placement
}

// newTable4 is the paper's evaluation: the ten Table-4 designs in paper
// order under the paper's default flow.
func newTable4() *batch {
	return &batch{specs: designgen.Table4(), reference: 4, options: func() cts.Options {
		o := cts.DefaultOptions()
		o.Workers = workers()
		return o
	}}
}

// newScale is the 100k-sink tier: SA off and one k-means restart, so the run
// measures the construction path rather than refinement.
func newScale() *batch {
	half := scaleSpec(50_000)
	return &batch{specs: []designgen.Spec{scaleSpec(100_000)}, companion: &half, options: func() cts.Options {
		o := cts.DefaultOptions()
		o.Workers = workers()
		o.UseSA = false
		o.SAIters = 0
		o.KMeansRestarts = 1
		return o
	}}
}

// scaleSpec is the scale tier's design shape at n sinks: half the instances
// are flip-flops.
func scaleSpec(n int) designgen.Spec {
	return designgen.Spec{Name: fmt.Sprintf("scale_%d", n), Insts: 2 * n, FFs: n, Util: 0.62}
}

// placementSeed is the generator seed of a workload's i-th placement. It
// does not depend on --seed: a placement drawn from a new generator seed
// moves the flow's work and QoR far more than any code change should be
// allowed to (at 100k sinks, WL by up to 2x), so every run of a workload
// synthesizes the same geometry and its QoR figures stay comparable.
func placementSeed(i int) int64 { return int64(i) + 1 }

// setup writes the LEF and every placement's DEF text into dir. The batch
// workloads' inputs are the same for every --seed.
func (b *batch) setup(_ int64, _ float64, dir string) error {
	b.dir, b.inputs = dir, nil
	var err error
	if b.lefPath, err = writeLEF(dir); err != nil {
		return err
	}
	var g designgen.Generator
	for i, spec := range b.specs {
		p, err := generate(&g, spec, placementSeed(i), dir)
		if err != nil {
			return err
		}
		b.inputs = append(b.inputs, p)
	}
	return nil
}

func (b *batch) close() {}

// jobRecord is one checked batch job.
type jobRecord struct {
	p      *placement
	wall   float64 // seconds
	cpu    float64 // process CPU seconds
	q      qor
	digest string
	live   uint64 // settled live heap with the job's results still held
	rt     rtSample
	report *obs.Report // the flow's run report, traced jobs only
}

// job runs and checks one placement. Failures are recorded in out; the
// record is nil when the job produced nothing to measure.
func (b *batch) job(p *placement, tr *tracer, id string, out *outcome) *jobRecord {
	outPath := filepath.Join(b.dir, p.name+".out.def")
	// Every job starts from a collected heap, so the garbage the previous
	// job and its checks left behind does not pace this job's collections.
	runtime.GC()
	before := readRuntime()
	j, err := runFlowJob(p, b.lefPath, outPath, b.options(), tr, id)
	after := readRuntime()
	out.attempted++
	if err != nil {
		out.fail("%s: %v", id, err)
		return nil
	}
	rec := &jobRecord{
		p:    p,
		wall: j.wall.Seconds(),
		cpu:  j.cpu,
		q:    qorOf(j.res.Report),
		live: settledLive(),
		rt: rtSample{
			allocs: after.allocs - before.allocs,
			cycles: after.cycles - before.cycles,
			gcCPU:  after.gcCPU - before.gcCPU,
		},
	}
	if j.rec != nil {
		rec.report = j.rec.Snapshot()
	}
	if err := checkTree(p.name, j.res); err != nil {
		out.fail("%s: %v", id, err)
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		out.fail("%s: %v", id, err)
		return rec
	}
	if rec.digest, err = checkDEF(p, data); err != nil {
		out.fail("%s: %v", id, err)
	}
	runtime.KeepAlive(j)
	return rec
}

// pass runs every placement once; with hs, it samples the host's speed
// before each job.
func (b *batch) pass(n int, tr *tracer, hs *hostSpeed, out *outcome) []*jobRecord {
	var recs []*jobRecord
	for i, p := range b.inputs {
		if hs != nil {
			hs.sample()
		}
		if r := b.job(p, tr, fmt.Sprintf("pass%d-%02d-%s", n, i, p.name), out); r != nil {
			recs = append(recs, r)
		}
	}
	return recs
}

func (b *batch) run(seconds float64, tr *tracer, hs *hostSpeed) *outcome {
	out := &outcome{metrics: metricSet{}}
	base := settledLive()
	if tr != nil {
		b.traced(tr, out)
		return out
	}
	// Whole passes, as many as fit: another pass starts only if one more
	// of the same length still ends within the measured time.
	var recs []*jobRecord
	start := time.Now()
	var passes []float64 // CPU seconds of each pass
	for n, last := 0, 0.0; n == 0 || time.Since(start).Seconds()+last <= seconds; n++ {
		t := time.Now()
		pass := b.pass(n, nil, hs, out)
		last = time.Since(t).Seconds()
		var cpu float64
		for _, r := range pass {
			cpu += r.cpu
		}
		passes = append(passes, cpu)
		recs = append(recs, pass...)
	}
	b.checkRepeats(recs, out)

	var rates []float64
	var sinks int
	var peak uint64
	for _, r := range recs {
		rates = append(rates, float64(len(r.p.sinkPins))/r.cpu)
		sinks += len(r.p.sinkPins)
		peak = max(peak, r.live)
	}
	qs := b.firstQoR(recs)
	setQoR(out.metrics, qs)
	misses := 0
	for _, r := range recs {
		if r.q.misses() {
			misses++
		}
	}
	hs.sample()
	k := hs.cpuScale()
	// Each job's rate counts alike: on table4_paper the summed CPU time
	// would leave a quarter of the figure to salsa20, whose dense min-cost
	// flow alone swings by half from one job to the next on a shared host.
	out.metrics.set("sinks_per_cpu_s", "sinks/cpu_s", geomean(rates)/k)
	// A batch job is one pass over the workload's placements, as a user
	// runs a suite. On a shared host a single design's time swings by a
	// third from run to run, so a median over table4_paper's ten designs
	// would follow whichever design ranks in the middle; a pass sums them.
	out.metrics.set("job_p50_s", "s", median(passes)*k)
	tv, tp := tail(passes)
	out.metrics.set("job_tail_s", "s", tv*k)
	out.metrics.set("peak_heap_mb", "MB", (float64(peak)-float64(base))/mb)

	for _, r := range recs[:len(qs)] {
		fmt.Printf("perfbench: %-10s sinks=%-6d wall=%.3fs cpu=%.3fs skew=%.1fps max_stage_cap=%.1ffF def_sha256=%s\n",
			r.p.name, len(r.p.sinkPins), r.wall, r.cpu, r.q.skew, r.q.maxStgCap, r.digest)
	}
	fmt.Printf("perfbench: %d jobs, passes=%d, %.3f CPU s measured (%.1f sinks/cpu_s), pass CPU time tail %s over %d samples, %d jobs miss a constraint, failed_share %.3f\n",
		len(recs), len(passes), sum(passes), float64(sinks)/sum(passes), tp, len(passes), misses, float64(out.failed+misses)/float64(out.attempted))
	return out
}

// checkRepeats fails the run if a placement synthesized twice exported
// different bytes.
func (b *batch) checkRepeats(recs []*jobRecord, out *outcome) {
	first := map[string]string{}
	for _, r := range recs {
		if d, ok := first[r.p.name]; !ok {
			first[r.p.name] = r.digest
		} else if d != r.digest {
			out.fail("%s: repeated job exported different DEF bytes", r.p.name)
		}
	}
}

// firstQoR returns the QoR of each placement's first job, in input order.
func (b *batch) firstQoR(recs []*jobRecord) []qor {
	var qs []qor
	for i := 0; i < len(recs) && i < len(b.inputs); i++ {
		qs = append(qs, recs[i].q)
	}
	return qs
}

// probeCutoff stops the level-0 probe once a traced run has used this much
// time: a run must end within 180 s, and on a host losing a third of its
// CPU to neighbours the table4 pass alone takes about 80 s.
const probeCutoff = 130 * time.Second

// traced is the per-layer run: one traced pass (flow recorder and benchmark
// spans on), the reference placement once more untraced for the tracing
// overhead, the level-0 partition probe on every placement and, for the
// scale tier, the half-size companion. The reference is one mid-size design
// rather than a second pass, so a traced run stays well inside its time
// limit on a loaded host.
func (b *batch) traced(tr *tracer, out *outcome) {
	start := time.Now()
	m := zeroPerLayer()
	out.metrics = m

	ref := b.inputs[b.reference]
	plain := b.job(ref, nil, "plain-"+ref.name, out)
	recs := b.pass(1, tr, nil, out)
	if plain != nil && len(recs) == len(b.inputs) {
		traced := recs[b.reference]
		b.checkRepeats([]*jobRecord{plain, traced}, out)
		m.set("obs.overhead_ratio", "1", traced.wall/plain.wall)
	}

	st := b.stages(recs, tr, m)
	var pt probeTimes
	for _, p := range b.inputs {
		if el := time.Since(start); el > probeCutoff {
			fmt.Printf("perfbench: level-0 probe stopped before %s: the run is at %.0f s\n", p.name, el.Seconds())
			break
		}
		method := b.probe(p, &pt, out)
		fmt.Printf("perfbench: level-0 probe %-10s assign=%s\n", p.name, method)
	}
	pt.set(m)

	var rt []rtSample
	for _, r := range recs {
		rt = append(rt, r.rt)
	}
	setRuntime(m, rt)
	qs := b.firstQoR(recs)
	m.set("qor.miss_share", "1", float64(setQoR(metricSet{}, qs))/float64(max(1, len(qs))))

	if b.companion != nil {
		b.growth(tr, st, out, m)
	}
}

// stages reads the traced pass's layer times: the benchmark's own I/O spans
// and the flow's stage spans and kernel counters.
func (b *batch) stages(recs []*jobRecord, tr *tracer, m metricSet) stageTimes {
	var st stageTimes
	for _, r := range recs {
		st.add(r.report)
	}
	st.set(m)
	setIO(m, tr, b.inputs)
	return st
}

// probe builds p's design (untimed) and runs the level-0 partition probe on
// its sinks under the workload's options.
func (b *batch) probe(p *placement, pt *probeTimes, out *outcome) string {
	lef, err := parseFile(b.lefPath, lefdef.ParseLEFReader)
	if err != nil {
		out.fail("probe %s: %v", p.name, err)
		return ""
	}
	df, err := parseFile(p.defPath, lefdef.ParseDEFReader)
	if err != nil {
		out.fail("probe %s: %v", p.name, err)
		return ""
	}
	d, err := design.FromLEFDEF(lef, df, "")
	if err != nil {
		out.fail("probe %s: %v", p.name, err)
		return ""
	}
	return pt.probeLevel0(d, b.options())
}

// growth runs the half-size companion traced and reports each layer's time
// at full size over its time at half size: about 2 for a linear kernel.
func (b *batch) growth(tr *tracer, full stageTimes, out *outcome, m metricSet) {
	var g designgen.Generator
	p, err := generate(&g, *b.companion, placementSeed(0), b.dir)
	if err != nil {
		out.fail("companion: %v", err)
		return
	}
	g = designgen.Generator{}
	id := "growth-" + p.name
	r := b.job(p, tr, id, out)
	if r == nil {
		return
	}
	var half stageTimes
	half.add(r.report)
	m.set("partition.growth_x", "1", full.partition/half.partition)
	m.set("clusters.growth_x", "1", full.clusters/half.clusters)
	fullParse := tr.total("parse") - tr.totalJob(id, "parse")
	m.set("lefdef.parse.growth_x", "1", fullParse/tr.totalJob(id, "parse"))
	os.Remove(p.defPath)
}
