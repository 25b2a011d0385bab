package main

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark was built on is a 2-vCPU share of a larger
// machine whose speed follows the load of its other tenants: the same
// deterministic table4_paper pass took 25 s of CPU time in one run and 46 s
// a few minutes later, every design slowed by a similar factor. No hardware
// performance counters are exposed, so the benchmark measures that factor
// itself. Between jobs it times a fixed reference kernel that shares no code
// with the flow: a shortest-path search with container/heap over a fixed
// random graph, the same mix of boxed heap operations, allocation and
// scattered loads as the flow's own partitioning and routing kernels. Of the
// kernels tried (a sort, walks through 8 and 32 MiB, tree allocation), its
// time followed the flow's jobs most closely as the host drifted. Every
// timed end-to-end metric is reported in nominal seconds: the measured time
// scaled by refNominal over the run's median reference time on the same
// clock, wall or CPU. A change to the flow moves the nominal figures exactly
// as it moves the measured ones; a change in the host's speed moves the
// reference as well and largely cancels. The measured figures are printed
// beside them.

// refNominal is the reference kernel's time that defines a nominal second:
// about what it took on the 2-vCPU Xeon (Sapphire Rapids) host the benchmark
// was built on, in its faster state.
const refNominal = 20 * time.Millisecond

// refReps is how many kernel runs make one reference sample; the sample is
// their median, so a preempted run does not move it.
const refReps = 3

// The reference graph: refNodes nodes with refDegree out-edges each.
const (
	refNodes  = 20000
	refDegree = 20
)

// hostSpeed holds the reference graph and the samples taken. The graph lives
// in memory mapped outside the Go heap, so it neither adds to the live heap
// that paces the flow's collections nor gets scanned; only the search's own
// heap items are allocated, as the flow's are.
type hostSpeed struct {
	to     []int32   // edge e of node n is n*refDegree + e
	weight []float64 // per edge, uniform in [0, 1)
	dist   []float64 // per node, scratch of the search
	walls  []float64 // median wall seconds of each sample
	cpus   []float64 // median CPU seconds of each sample
	spent  float64   // process CPU seconds all samples took
}

// newHostSpeed builds the reference graph from a fixed seed.
func newHostSpeed() (*hostSpeed, error) {
	edges := refNodes * refDegree
	mem, err := syscall.Mmap(-1, 0, 4*edges+8*edges+8*refNodes,
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("host-speed reference: %w", err)
	}
	h := &hostSpeed{
		to:     unsafe.Slice((*int32)(unsafe.Pointer(&mem[0])), edges),
		weight: unsafe.Slice((*float64)(unsafe.Pointer(&mem[4*edges])), edges),
		dist:   unsafe.Slice((*float64)(unsafe.Pointer(&mem[12*edges])), refNodes),
	}
	rng := rand.New(rand.NewSource(1))
	for e := range h.to {
		h.to[e] = int32(rng.Intn(refNodes))
		h.weight[e] = rng.Float64()
	}
	return h, nil
}

// refItem is a search frontier entry.
type refItem struct {
	node int32
	d    float64
}

// refQueue is a binary min-heap of frontier entries for container/heap.
type refQueue []refItem

func (q refQueue) Len() int           { return len(q) }
func (q refQueue) Less(i, j int) bool { return q[i].d < q[j].d }
func (q refQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)        { *q = append(*q, x.(refItem)) }
func (q *refQueue) Pop() any {
	old := *q
	it := old[len(old)-1]
	*q = old[:len(old)-1]
	return it
}

// kernel is one reference run, about 20 ms: shortest paths from node 0 to
// every node of the graph. It returns the run's wall time and the CPU time
// of the thread that ran it, in seconds. The thread's clock leaves out the
// collector's background workers, whose share of a 20 ms run depends on
// whether a cycle happens to start in it.
func (h *hostSpeed) kernel() (wall, cpu float64) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start, cpu0 := time.Now(), threadCPUSeconds()
	for i := range h.dist {
		h.dist[i] = math.Inf(1)
	}
	h.dist[0] = 0
	q := &refQueue{{0, 0}}
	for q.Len() > 0 {
		it := heap.Pop(q).(refItem)
		if it.d > h.dist[it.node] {
			continue
		}
		for e := int(it.node) * refDegree; e < int(it.node+1)*refDegree; e++ {
			if d := it.d + h.weight[e]; d < h.dist[h.to[e]] {
				h.dist[h.to[e]] = d
				heap.Push(q, refItem{h.to[e], d})
			}
		}
	}
	return time.Since(start).Seconds(), threadCPUSeconds() - cpu0
}

// threadCPUSeconds reads the calling thread's CPU clock, which like the
// process's CPU time leaves out what the hypervisor stole.
func threadCPUSeconds() float64 {
	var ts syscall.Timespec
	const clockThreadCPUTimeID = 3
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return float64(ts.Sec) + float64(ts.Nsec)/1e9
}

// sample times refReps kernel runs and records their median wall and CPU
// times.
func (h *hostSpeed) sample() {
	defer func(cpu0 float64) { h.spent += cpuSeconds() - cpu0 }(cpuSeconds())
	walls, cpus := make([]float64, refReps), make([]float64, refReps)
	for i := range walls {
		walls[i], cpus[i] = h.kernel()
	}
	h.walls = append(h.walls, median(walls))
	h.cpus = append(h.cpus, median(cpus))
}

// wallScale converts measured wall seconds to nominal seconds by the run's
// median reference wall time, which, like any wall time, includes what the
// hypervisor stole.
func (h *hostSpeed) wallScale() float64 {
	return refNominal.Seconds() / median(h.walls)
}

// cpuScale converts measured CPU seconds to nominal seconds by the run's
// median reference CPU time, which, like the jobs' CPU time, excludes it.
func (h *hostSpeed) cpuScale() float64 {
	return refNominal.Seconds() / median(h.cpus)
}
