package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"syscall"
	"time"

	"sllt/internal/cts"
	"sllt/internal/design"
	"sllt/internal/designgen"
	"sllt/internal/invariants"
	"sllt/internal/lefdef"
	"sllt/internal/liberty"
	"sllt/internal/obs"
	"sllt/internal/timing"
)

// placement is one generated design on disk, with the ground truth the
// output checks compare against: every clock pin the generator placed.
type placement struct {
	name     string
	defPath  string
	defBytes int64
	sinkPins []string // "inst/pin" of every clock sink, generator order
}

// writeLEF renders the technology LEF (design macros plus the buffer
// library) into dir and returns its path.
func writeLEF(dir string) (string, error) {
	lef := designgen.LEF(designgen.BufferMacros(liberty.Default()))
	path := filepath.Join(dir, "tech.lef")
	return path, os.WriteFile(path, []byte(lef.WriteLEF()), 0o644)
}

// generate synthesizes spec under seed, streams its DEF text into dir and
// records the sink pins. The generator is reused across calls.
func generate(g *designgen.Generator, spec designgen.Spec, seed int64, dir string) (*placement, error) {
	d := g.Generate(spec, seed)
	p := &placement{name: spec.Name, defPath: filepath.Join(dir, spec.Name+".def")}
	for i := range d.Insts {
		if in := &d.Insts[i]; in.IsSink {
			p.sinkPins = append(p.sinkPins, in.Name+"/"+in.ClockPin)
		}
	}
	f, err := os.Create(p.defPath)
	if err != nil {
		return nil, err
	}
	if err := designgen.StreamDEF(f, d); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	st, err := os.Stat(p.defPath)
	if err != nil {
		return nil, err
	}
	p.defBytes = st.Size()
	return p, nil
}

// flowJob is one completed parse → build → cts.Run → export job.
type flowJob struct {
	wall   time.Duration  // the whole timed job
	cpu    float64        // process CPU seconds (user + system) the job took
	design *design.Design // held with res, so a settled heap reading includes both
	res    *cts.Result
	rec    *obs.Recorder // nil when untraced
}

// runFlowJob runs the offline pipeline the way cmd/slltcts does: LEF and DEF
// stream from disk, the post-CTS DEF streams to outPath. With a tracer, the
// flow records into a fresh obs recorder and each phase becomes a span
// under the job's ID.
func runFlowJob(p *placement, lefPath, outPath string, opts cts.Options, tr *tracer, id string) (*flowJob, error) {
	if tr != nil {
		opts.Obs = obs.New(nil)
	}
	start, cpu0 := time.Now(), cpuSeconds()
	end := tr.begin(id, "parse")
	lef, err := parseFile(lefPath, lefdef.ParseLEFReader)
	if err != nil {
		return nil, fmt.Errorf("%s: lef: %w", p.name, err)
	}
	df, err := parseFile(p.defPath, lefdef.ParseDEFReader)
	if err != nil {
		return nil, fmt.Errorf("%s: def: %w", p.name, err)
	}
	end()
	end = tr.begin(id, "build")
	d, err := design.FromLEFDEF(lef, df, "")
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.name, err)
	}
	end()
	end = tr.begin(id, "cts")
	res, err := cts.Run(d, opts)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.name, err)
	}
	end()
	end = tr.begin(id, "export")
	f, err := os.Create(outPath)
	if err != nil {
		return nil, err
	}
	if _, err := cts.ExportDEFWriter(f, d, res); err != nil {
		f.Close()
		return nil, fmt.Errorf("%s: %w", p.name, err)
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	end()
	return &flowJob{wall: time.Since(start), cpu: cpuSeconds() - cpu0, design: d, res: res, rec: opts.Obs}, nil
}

func parseFile[T any](path string, parse func(r io.Reader) (T, error)) (T, error) {
	f, err := os.Open(path)
	if err != nil {
		var zero T
		return zero, err
	}
	defer f.Close()
	return parse(f)
}

// checkTree runs the structural tree invariants on a synthesis result.
func checkTree(name string, res *cts.Result) error {
	if err := invariants.CheckTree(res.Tree); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// checkDEF re-parses an exported DEF and verifies that its clock nets
// connect every generated sink pin exactly once and nothing else besides
// the clock port and the inserted buffers. It returns the DEF's SHA-256.
func checkDEF(p *placement, data []byte) (string, error) {
	sum := sha256.Sum256(data)
	digest := hex.EncodeToString(sum[:])
	def, err := lefdef.ParseDEFReader(bytes.NewReader(data))
	if err != nil {
		return digest, fmt.Errorf("%s: exported DEF does not re-parse: %w", p.name, err)
	}
	seen := make(map[string]int, len(p.sinkPins))
	for _, s := range p.sinkPins {
		seen[s] = 0
	}
	buffers := make(map[string]bool)
	for i := range def.Components {
		if c := &def.Components[i]; len(c.Name) > 7 && c.Name[:7] == "clkbuf_" {
			buffers[c.Name] = true
		}
	}
	for i := range def.Nets {
		n := &def.Nets[i]
		if n.Use != "CLOCK" {
			continue
		}
		for _, c := range n.Conns {
			if c.Comp == "PIN" || buffers[c.Comp] {
				continue
			}
			key := c.Comp + "/" + c.Pin
			k, ok := seen[key]
			if !ok {
				return digest, fmt.Errorf("%s: clock net %s connects unknown pin %s", p.name, n.Name, key)
			}
			seen[key] = k + 1
		}
	}
	for _, s := range p.sinkPins {
		if k := seen[s]; k != 1 {
			return digest, fmt.Errorf("%s: sink %s connected %d times", p.name, s, k)
		}
	}
	return digest, nil
}

// qor is one placement's timing report reduced to the benchmark's figures.
type qor struct {
	skew, maxLat, wl, bufArea, clockCap, maxStgCap float64
}

func qorOf(r *timing.Report) qor {
	return qor{r.Skew, r.MaxLatency, r.WL, r.BufArea, r.ClockCap, r.MaxStgCap}
}

// misses reports whether the placement misses the Table-5 skew bound or
// max stage cap.
func (q qor) misses() bool {
	cons := cts.DefaultConstraints()
	return q.skew > cons.SkewBound || q.maxStgCap > cons.MaxCap
}

// setQoR reports the QoR figures over one report per distinct placement:
// skew and latency as means, the resource figures as sums, and the worst
// constraint ratios against the Table-5 bounds. It returns how many
// placements miss a bound.
func setQoR(m metricSet, qs []qor) int {
	cons := cts.DefaultConstraints()
	var skew, lat, wl, area, cap_, worstSkew, worstCap []float64
	misses := 0
	for _, q := range qs {
		skew = append(skew, q.skew)
		lat = append(lat, q.maxLat)
		wl = append(wl, q.wl)
		area = append(area, q.bufArea)
		cap_ = append(cap_, q.clockCap)
		worstSkew = append(worstSkew, q.skew/cons.SkewBound)
		worstCap = append(worstCap, q.maxStgCap/cons.MaxCap)
		if q.misses() {
			misses++
		}
	}
	m.set("skew_ps", "ps", mean(skew))
	m.set("max_latency_ps", "ps", mean(lat))
	m.set("wl_um", "um", sum(wl))
	m.set("buf_area_um2", "um2", sum(area))
	m.set("clock_cap_ff", "fF", sum(cap_))
	m.set("skew_bound_ratio", "1", maxOf(worstSkew))
	m.set("cap_bound_ratio", "1", maxOf(worstCap))
	return misses
}

func maxOf(xs []float64) float64 {
	var m float64
	for i, x := range xs {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}

// rtSample is a reading of the Go runtime counters the benchmark tracks.
type rtSample struct {
	live, allocs, cycles uint64  // bytes, bytes, GC cycles
	gcCPU                float64 // seconds
}

var rtNames = []string{
	"/gc/heap/live:bytes",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readRuntime() rtSample {
	s := make([]rtmetrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	rtmetrics.Read(s)
	return rtSample{
		live:   s[0].Value.Uint64(),
		allocs: s[1].Value.Uint64(),
		cycles: s[2].Value.Uint64(),
		gcCPU:  s[3].Value.Float64(),
	}
}

// settledLive forces a collection and returns the live heap: the bytes
// reachable right now, independent of when the last cycle happened to run.
func settledLive() uint64 {
	runtime.GC()
	return readRuntime().live
}

const mb = 1 << 20

// cpuSeconds is the CPU time the process has used so far, user plus system.
// The kernel does not charge a process for time the hypervisor stole from
// its virtual CPUs, so on a shared host this reads the work done rather than
// the wait for a CPU.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
