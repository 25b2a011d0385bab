package main

import "fmt"

// endToEnd lists the metrics every untraced run reports.
var endToEnd = []string{
	"setup_s", "sinks_per_cpu_s", "job_p50_s", "job_tail_s",
	"skew_ps", "max_latency_ps", "wl_um", "buf_area_um2", "clock_cap_ff",
	"skew_bound_ratio", "cap_bound_ratio", "peak_heap_mb",
}

// perLayer lists the metrics every traced run reports, with their units. A
// layer the workload does not exercise reports 0; README.md maps each
// metric to the workload it is meant to be read on.
var perLayer = []struct{ name, unit string }{
	{"lefdef.parse_s", "s"},
	{"lefdef.parse_mb_per_s", "MB/s"},
	{"design.build_s", "s"},
	{"cts.export_s", "s"},
	{"partition.s", "s"},
	{"partition.kmeans_s", "s"},
	{"partition.assign_s", "s"},
	{"partition.sa_s", "s"},
	{"partition.mcf_share", "1"},
	{"kernel.partition.mcf_augments", "count"},
	{"kernel.partition.sa_proposed", "count"},
	{"partition.sa_accept_ratio", "1"},
	{"kernel.partition.kmeans_iters", "count"},
	{"clusters.s", "s"},
	{"clusters.busy_s", "s"},
	{"clusters.parallel_eff", "1"},
	{"kernel.dme.merges", "count"},
	{"kernel.dme.snakes", "count"},
	{"kernel.buffering.inserted", "count"},
	{"kernel.buffering.decoupled", "count"},
	{"kernel.rsmt.steiner_inserts", "count"},
	{"grid.hit_ratio", "1"},
	{"timing.s", "s"},
	{"top_net.s", "s"},
	{"cache.cluster_build.hit_ratio", "1"},
	{"cache.partition.hit_ratio", "1"},
	{"cache.bytes_written_mb", "MB"},
	{"cache.evictions", "count"},
	{"server.service_warm_s", "s"},
	{"server.service_cold_s", "s"},
	{"server.queue_wait_s", "s"},
	{"server.submit_s", "s"},
	{"server.fetch_s", "s"},
	{"server.decode_s", "s"},
	{"server.shed", "count"},
	{"server.jobs_retained", "count"},
	{"server.generator_late_s", "s"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cpu_s", "s"},
	{"runtime.gc_cycles", "count"},
	{"obs.overhead_ratio", "1"},
	{"partition.growth_x", "1"},
	{"clusters.growth_x", "1"},
	{"lefdef.parse.growth_x", "1"},
	{"qor.miss_share", "1"},
}

// zeroPerLayer returns the per-layer set with every metric at 0.
func zeroPerLayer() metricSet {
	m := metricSet{}
	for _, l := range perLayer {
		m.set(l.name, l.unit, 0)
	}
	return m
}

// setRuntime reports the runtime counters as per-job means.
func setRuntime(m metricSet, jobs []rtSample) {
	var alloc, gc, cycles []float64
	for _, r := range jobs {
		alloc = append(alloc, float64(r.allocs)/mb)
		gc = append(gc, r.gcCPU)
		cycles = append(cycles, float64(r.cycles))
	}
	m.set("runtime.alloc_mb", "MB", mean(alloc))
	m.set("runtime.gc_cpu_s", "s", mean(gc))
	m.set("runtime.gc_cycles", "count", mean(cycles))
}

// checkNames verifies that a run reports exactly the metrics of its mode.
func checkNames(m metricSet, traced bool) error {
	var want []string
	if traced {
		for _, l := range perLayer {
			want = append(want, l.name)
			if u := m[l.name].Unit; u != l.unit {
				return fmt.Errorf("metric %s reported in %q, want %q", l.name, u, l.unit)
			}
		}
	} else {
		want = endToEnd
	}
	for _, n := range want {
		if _, ok := m[n]; !ok {
			return fmt.Errorf("metric %s not measured", n)
		}
	}
	if len(m) != len(want) {
		return fmt.Errorf("%d metrics reported, want %d", len(m), len(want))
	}
	return nil
}
