package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The hosts this benchmark runs on change speed by a fifth or more over
// tens of seconds: a fixed piece of work takes that much more CPU time, not
// just more wall-clock time. At times they also withhold a CPU from the
// machine for seconds (steal time). The timed end-to-end metrics are
// therefore reported at a fixed reference speed.
//
// A sampler runs a fixed CPU kernel (calibUnit, which uses nothing from
// the repository) every sampleEvery on its own OS thread, from before
// set-up to the end of the measured window, and times each run by that
// thread's CPU time, which leaves out waiting for a CPU and steal time. It
// also reads the machine's steal time. An operation that took d of
// wall-clock time while the kernel ran at speed s and the host stole a
// share f of the CPUs' time is reported as d * (1-f) * s / refSpeed: the
// time it would have taken on a machine that runs the kernel at refSpeed
// and steals nothing. A change to the repository's code moves d and leaves
// s and f alone. The kernel's data fits in L1, so what the workload leaves
// in the caches barely moves s either.

const (
	// refSpeed is the reference speed in calibUnits per CPU-second, about
	// the median speed of the 2-vCPU host the bounds were set on.
	refSpeed = 160000
	// sampleEvery and sampleUnits set the sampler's duty: 250 units take
	// about 1.6 ms at refSpeed, under 2% of one CPU.
	sampleEvery = 100 * time.Millisecond
	sampleUnits = 250
	// samplePad widens the interval whose samples scale an operation, so
	// that even a short operation is scaled by the median of about 20.
	samplePad = time.Second
)

var calibSink float64

// calibUnit is the fixed piece of CPU work: the LU factorisation of a
// diagonally dominant 24x24 matrix, which fits in L1. Of the kernels tried
// (integer hashing over 16 KiB, 1 MiB and 32 MiB buffers, and this one),
// its speed followed that of the workloads' own code most closely over
// 150 s in which both changed by a factor of two: the standard deviation of
// log(workload time / kernel time) over 1 s bins was 0.06 for a charlib
// characterisation and 0.07 for sta.Analyze, against 0.12 for integer
// hashing in L1 and 0.20 unscaled.
func calibUnit(a *[24][24]float64, seed int) float64 {
	const k = len(a)
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			a[i][j] = float64((i*7+j*13+seed)%17) + 1
		}
		a[i][i] += 50
	}
	for p := 0; p < k; p++ {
		for i := p + 1; i < k; i++ {
			f := a[i][p] / a[p][p]
			for j := p; j < k; j++ {
				a[i][j] -= f * a[p][j]
			}
		}
	}
	return a[k-1][k-1]
}

// threadCPU returns the CPU time the calling OS thread has used. The clock
// exists on every Linux the benchmark builds for, so the call's error is
// not checked; a failure would leave ts zero.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// speedSampler records the machine's speed while a workload runs.
type speedSampler struct {
	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
	// at, speed and steal are written by the sampler goroutine and read
	// only after stopSampler has returned.
	at    []time.Time
	speed []float64       // calibUnits per CPU-second
	steal []time.Duration // the machine's steal time so far, summed over CPUs
}

// startSampler starts sampling. The samples may be read once stopSampler
// has returned.
func startSampler() *speedSampler {
	s := &speedSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go s.run()
	return s
}

func (s *speedSampler) run() {
	defer close(s.done)
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var a [24][24]float64
	tick := time.NewTicker(sampleEvery)
	defer tick.Stop()
	for {
		t0 := threadCPU()
		for i := 0; i < sampleUnits; i++ {
			calibSink += calibUnit(&a, i)
		}
		if d := threadCPU() - t0; d > 0 {
			s.at = append(s.at, time.Now())
			s.speed = append(s.speed, sampleUnits/d.Seconds())
			s.steal = append(s.steal, stealTime())
		}
		select {
		case <-s.stop:
			return
		case <-tick.C:
		}
	}
}

// stopSampler stops the sampler and waits for it to exit. It may be
// called more than once.
func (s *speedSampler) stopSampler() {
	s.stopOnce.Do(func() { close(s.stop) })
	<-s.done
}

// scale returns the factor that turns a wall-clock duration measured
// between from and to into one at refSpeed: over the samples taken within
// samplePad of that interval, the share of CPU time not stolen times the
// median speed over refSpeed. It is 1 for a nil sampler, which leaves
// durations as measured.
func (s *speedSampler) scale(from, to time.Time) float64 {
	if s == nil || len(s.at) == 0 {
		return 1
	}
	lo := sort.Search(len(s.at), func(i int) bool { return !s.at[i].Before(from.Add(-samplePad)) })
	hi := sort.Search(len(s.at), func(i int) bool { return s.at[i].After(to.Add(samplePad)) })
	if lo >= hi {
		// No sample near the interval: use the nearest one.
		return s.speed[min(lo, len(s.at)-1)] / refSpeed
	}
	return (1 - s.stealShare(lo, hi-1)) * quantile(s.speed[lo:hi], 0.5) / refSpeed
}

// stealShare returns the share of the CPUs' time the host stole between
// samples i and j, at most 0.9.
func (s *speedSampler) stealShare(i, j int) float64 {
	span := s.at[j].Sub(s.at[i])
	if span <= 0 {
		return 0
	}
	f := float64(s.steal[j]-s.steal[i]) / (float64(span) * float64(runtime.NumCPU()))
	return min(max(f, 0), 0.9)
}

// stealTime returns the machine's steal time so far, summed over CPUs (the
// steal column of /proc/stat, in USER_HZ ticks of 10 ms), or 0 where it
// cannot be read.
func stealTime() time.Duration {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond
}

// normalize returns the observations with each duration scaled to
// refSpeed. start is the start of the window the observations' offsets
// count from. A nil sampler returns them as measured.
func (s *speedSampler) normalize(xs []obs, start time.Time) []obs {
	out := make([]obs, len(xs))
	for i, o := range xs {
		end := start.Add(o.at)
		o.d = time.Duration(float64(o.d) * s.scale(end.Add(-o.d), end))
		out[i] = o
	}
	return out
}

// note describes the samples for the report.
func (s *speedSampler) note() string {
	steal := 0.0
	if n := len(s.at); n > 1 {
		steal = s.stealShare(0, n-1)
	}
	return fmt.Sprintf("machine speed: median %.0f calibUnits/CPU-s (reference %d), range %.0f-%.0f, n=%d; steal %.1f%% of CPU time; timed end-to-end metrics are at the reference speed",
		quantile(s.speed, 0.5), refSpeed, quantile(s.speed, 0), quantile(s.speed, 1), len(s.speed), 100*steal)
}
