package main

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// On a shared host, a neighbour on the same physical cores can halve
// the speed of every instruction this container runs, switching within
// a second and drifting over minutes; run-to-run spreads of 20–40% in
// every timing follow. The probe measures that speed while the run
// happens: one thread pinned to each CPU the process may use runs a
// fixed 9×9 matrix-product kernel (the engine's kind of work) every
// probePeriod and records the thread CPU time it took. Thread CPU time
// is immune to scheduling (time slices shared with the server do not
// count), so it moves only with how fast the core executes. The kernel
// takes about 1.5% of each CPU. Each request's latency is scaled by the
// speed around it: the slow phases are shorter than a run, so scaling
// a whole run by its mean speed would leave its tail uncorrected.
const (
	probePeriod = 20 * time.Millisecond
	// referenceKernelMs is the kernel's CPU time at the reference speed:
	// the uncontended speed of the 2-core host the bounds were calibrated
	// on. Time-based end-to-end metrics are reported at this speed.
	referenceKernelMs = 0.25
)

// speedProbe records kernel timings from its pinned threads as a time
// series.
type speedProbe struct {
	mu     sync.Mutex
	ts     []time.Time // when each sample ended, in order
	cum    []float64   // cum[i] is the kernel ms of the first i samples
	cumAll []float64   // the same for all the probe threads' CPU time
	quit   chan struct{}
	once   sync.Once
	wg     sync.WaitGroup
	cpus   int
	fails  int // threads that could not be pinned (they run unpinned)
}

// startSpeedProbe starts one pinned thread per allowed CPU.
func startSpeedProbe() *speedProbe {
	cpus := allowedCPUs()
	p := &speedProbe{quit: make(chan struct{}), cpus: len(cpus), cum: []float64{0}, cumAll: []float64{0}}
	started := make(chan bool, len(cpus)) // one report per thread
	for _, cpu := range cpus {
		p.wg.Add(1)
		go p.run(cpu, started)
	}
	for range cpus {
		if !<-started {
			p.fails++
		}
	}
	return p
}

// run is one probe thread. It never unlocks its OS thread, so the Go
// runtime ends the pinned thread when the goroutine returns.
func (p *speedProbe) run(cpu int, started chan<- bool) {
	defer p.wg.Done()
	runtime.LockOSThread()
	var mask [16]uint64
	mask[cpu/64] = 1 << (cpu % 64)
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
	started <- errno == 0
	tick := time.NewTicker(probePeriod)
	defer tick.Stop()
	last := threadCPU()
	for {
		t0 := threadCPU()
		probeKernel()
		t1 := threadCPU()
		p.mu.Lock()
		// Stamped under the lock, so the series stays in time order.
		p.ts = append(p.ts, time.Now())
		p.cum = append(p.cum, p.cum[len(p.cum)-1]+float64(t1-t0)/1e6)
		p.cumAll = append(p.cumAll, p.cumAll[len(p.cumAll)-1]+float64(t1-last)/1e6)
		p.mu.Unlock()
		last = t1
		select {
		case <-p.quit:
			return
		case <-tick.C:
		}
	}
}

// stop ends the probe threads and waits for them. It may be called
// more than once.
func (p *speedProbe) stop() {
	p.once.Do(func() { close(p.quit) })
	p.wg.Wait()
}

// minSpeedWindow is the shortest interval speed averages over: a few
// samples per CPU, so a sub-millisecond request still gets the speed
// the host ran at around it.
const minSpeedWindow = 50 * time.Millisecond

// speed returns the host speed over [from, to], widened about its
// middle to at least minSpeedWindow, relative to the reference (1 =
// reference, 0.5 = half as fast). With no samples there it returns 1.
func (p *speedProbe) speed(from, to time.Time) float64 {
	if d := to.Sub(from); d < minSpeedWindow {
		mid := from.Add(d / 2)
		from, to = mid.Add(-minSpeedWindow/2), mid.Add(minSpeedWindow/2)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	a := sort.Search(len(p.ts), func(i int) bool { return !p.ts[i].Before(from) })
	b := sort.Search(len(p.ts), func(i int) bool { return p.ts[i].After(to) })
	if b <= a || p.cum[b] <= p.cum[a] {
		return 1
	}
	return referenceKernelMs / ((p.cum[b] - p.cum[a]) / float64(b-a))
}

// The correction assumes the probe reads the host, not the server under
// test. It does not fully: if the server's load changes the kernel's
// speed, a change to the server's CPU, memory or blocking behaviour is
// partly divided out of its timings. So the speed is also read in an
// idle window just before and just after the measured run, with the
// server up and no request in flight. Each window lasts a twentieth of
// the run, at most maxIdleWindow. Over ten runs the median of loaded ÷
// idle differs by workload (about 0.95 on warm_replay, 1.07–1.11 on
// cold_gripenberg on the reference host): that is the size of the
// dependence, and its median moving between two commits shows a change
// in it. Single runs scatter by up to 0.26 around 1 because the host
// changes speed between the windows, so only a run beyond
// speedAgreement is flagged.
const (
	maxIdleWindow  = time.Second
	speedAgreement = 0.3
)

// idleSpeed waits one idle window, sending nothing, and returns the
// host speed over it (1 if ctx ends first).
func (r *runner) idleSpeed(ctx context.Context) float64 {
	t0 := time.Now()
	timer := time.NewTimer(min(maxIdleWindow, time.Duration(r.cfg.seconds*float64(time.Second)/20)))
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return 1
	case <-timer.C:
	}
	return r.probe.speed(t0, time.Now())
}

// cpuMs returns the CPU time the probe threads used over [from, to],
// wake-ups included.
func (p *speedProbe) cpuMs(from, to time.Time) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	a := sort.Search(len(p.ts), func(i int) bool { return !p.ts[i].Before(from) })
	b := sort.Search(len(p.ts), func(i int) bool { return p.ts[i].After(to) })
	return p.cumAll[b] - p.cumAll[a]
}

// kernelSink keeps the kernel's result alive.
var kernelSink float64

// probeKernel multiplies two 9×9 matrices 300 times in a chain.
func probeKernel() {
	var a, b, c [81]float64
	for i := range a {
		a[i] = float64(i%7) * 0.01
		b[i] = float64(i%5) * 0.02
	}
	for it := 0; it < 300; it++ {
		for i := 0; i < 9; i++ {
			for j := 0; j < 9; j++ {
				s := 0.0
				for k := 0; k < 9; k++ {
					s += a[i*9+k] * b[k*9+j]
				}
				c[i*9+j] = s
			}
		}
		a, c = c, a
	}
	kernelSink += a[0]
}

// threadCPU returns the calling thread's CPU time.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTimeID = 3
	// Cannot fail for this clock and a valid pointer; a zero reading
	// only makes speed fall back to 1.
	_, _, _ = syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// allowedCPUs lists the CPUs this process may run on.
func allowedCPUs() []int {
	var mask [16]uint64
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
	var cpus []int
	if errno == 0 {
		for w, m := range mask {
			for ; m != 0; m &= m - 1 {
				cpus = append(cpus, w*64+bits.TrailingZeros64(m))
			}
		}
	}
	if len(cpus) == 0 {
		for c := 0; c < runtime.NumCPU(); c++ {
			cpus = append(cpus, c)
		}
	}
	return cpus
}

// String describes the probe for the run log.
func (p *speedProbe) String() string {
	return fmt.Sprintf("speed probe on %d CPUs (%d unpinned), kernel %.3g ms at reference speed", p.cpus, p.fails, referenceKernelMs)
}
