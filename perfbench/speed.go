package main

import (
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"runtime"
	"slices"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark runs on shares its cores and caches with
// other machines' work, and how much they leave it changes within
// seconds: the same operations took from 8.6 to 15.3 ms of CPU per
// operation in consecutive 2 s windows of one join-large run, and
// whole 30 s runs of the same seed differed by a quarter. A speedRef
// measures that speed with a fixed task of the benchmark's own, run
// between operations, and host CPU times are reported scaled to the
// speed at which the task takes its nominal time: a time t measured
// while the task took r (the median of the refNeighbours samples on
// either side) is reported as t × nominal / r. The task copies and
// sorts refKeys keys and chases pointers through a refRing-entry single
// cycle (16 MB), so it depends on the caches and memory as the
// workloads do; that part's memory is mapped outside the Go heap and
// its time is the CPU time of its own thread, so the program's heap and
// collector neither see it nor slow it down.
const (
	refKeys       = 1 << 16
	refRing       = 1 << 22
	refNeighbours = 4
)

// refTask sizes the reference task for a workload. Its nominal time
// is a round figure near the task's median CPU time on the machine the
// bounds in BENCHMARK.json were set on (2 vCPUs of a 2.0 GHz Xeon,
// shared; run medians 26–35 ms for memoryTask and 47–59 ms for
// loopbackTask), so scaled times read about as that machine's
// milliseconds.
type refTask struct {
	steps int // pointer-chase steps
	// pings is how many 64-byte round trips over loopback TCP the task
	// makes, timed by the process's CPU time.
	pings   int
	every   time.Duration
	nominal time.Duration
}

var (
	// memoryTask serves the library workloads. join-large's operations
	// slowed more with the host than the sort did, so the chase, which
	// waits on memory, dominates.
	memoryTask = refTask{steps: 120000, every: 400 * time.Millisecond, nominal: 34 * time.Millisecond}
	// loopbackTask serves serve-mix, whose requests all cross the
	// loopback TCP stack.
	loopbackTask = refTask{steps: 40000, pings: 2400, every: 400 * time.Millisecond, nominal: 60 * time.Millisecond}
)

// speedRef is the reference task and its samples. A nil *speedRef
// measures nothing and scales nothing: traced runs use none.
type speedRef struct {
	task       refTask
	mem        []byte
	keys, work []int64
	ring       []uint32
	sink       uint32
	start      time.Time
	last       time.Time
	at         []time.Duration // when each sample ended
	took       []time.Duration // the task's CPU time
	// conn is the client end of the loopback echo, nil without one;
	// echoed is closed when the echo goroutine has ended.
	conn   net.Conn
	ln     net.Listener
	echoed chan struct{}
	// err is the first failed round trip; it voids the scaled times.
	err error
}

// newSpeedRef sets the task up.
func newSpeedRef(task refTask) (*speedRef, error) {
	size := 2*refKeys*8 + refRing*4
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("speed reference: %w", err)
	}
	r := &speedRef{
		task: task,
		mem:  mem,
		keys: unsafe.Slice((*int64)(unsafe.Pointer(&mem[0])), refKeys),
		work: unsafe.Slice((*int64)(unsafe.Pointer(&mem[refKeys*8])), refKeys),
		ring: unsafe.Slice((*uint32)(unsafe.Pointer(&mem[2*refKeys*8])), refRing),
	}
	// The task is the same on every run, whatever the workload seed.
	rng := rand.New(rand.NewSource(1))
	for i := range r.keys {
		r.keys[i] = rng.Int63()
	}
	// Sattolo's shuffle of the identity is a single cycle through
	// every entry.
	for i := range r.ring {
		r.ring[i] = uint32(i)
	}
	for i := len(r.ring) - 1; i > 0; i-- {
		j := rng.Intn(i)
		r.ring[i], r.ring[j] = r.ring[j], r.ring[i]
	}
	if task.pings > 0 {
		if err := r.startEcho(); err != nil {
			r.close()
			return nil, fmt.Errorf("speed reference: %w", err)
		}
	}
	r.start = time.Now()
	return r, nil
}

// startEcho opens a loopback connection to a goroutine that echoes
// what it reads.
func (r *speedRef) startEcho() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	r.ln, r.echoed = ln, make(chan struct{})
	go func() {
		defer close(r.echoed)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		io.Copy(c, c) //nolint:errcheck // ends when the client closes
	}()
	r.conn, err = net.Dial("tcp", ln.Addr().String())
	return err
}

// close stops the echo and waits for it, unmaps the task's memory and
// reports the task's times on stderr.
func (r *speedRef) close() {
	if r == nil {
		return
	}
	syscall.Munmap(r.mem) //nolint:errcheck
	if r.ln != nil {
		if r.conn != nil {
			r.conn.Close()
		}
		r.ln.Close()
		<-r.echoed
	}
	ms := make([]float64, len(r.took))
	for i, t := range r.took {
		ms[i] = float64(t) / 1e6
	}
	if len(ms) > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: speed reference: %d samples, CPU ms min %.2f median %.2f max %.2f\n",
			len(ms), slices.Min(ms), median(ms), slices.Max(ms))
	}
}

// now is the time since the reference started, the clock samples and
// operations are stamped with.
func (r *speedRef) now() time.Duration {
	if r == nil {
		return 0
	}
	return time.Since(r.start)
}

// threadCPU is the calling thread's CPU time.
func threadCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_THREAD, &ru); err != nil {
		return 0
	}
	return time.Duration(syscall.TimevalToNsec(ru.Utime) + syscall.TimevalToNsec(ru.Stime))
}

// sample runs the task once and records its CPU time.
func (r *speedRef) sample() {
	if r == nil {
		return
	}
	runtime.LockOSThread()
	c := threadCPU()
	copy(r.work, r.keys)
	slices.Sort(r.work)
	x := r.sink
	for i := 0; i < r.task.steps; i++ {
		x = r.ring[x]
	}
	took := threadCPU() - c
	runtime.UnlockOSThread()
	r.sink = x
	if r.conn != nil {
		// Both ends run on this process's threads, so the round trips
		// are timed by the process's CPU time.
		var buf [64]byte
		c := cpuNow()
		for i := 0; i < r.task.pings && r.err == nil; i++ {
			if _, r.err = r.conn.Write(buf[:]); r.err == nil {
				_, r.err = io.ReadFull(r.conn, buf[:])
			}
		}
		took += cpuNow() - c
	}
	r.last = time.Now()
	r.at = append(r.at, r.now())
	r.took = append(r.took, took)
}

// tick samples when the task's interval has passed since the last
// sample.
func (r *speedRef) tick() {
	if r != nil && time.Since(r.last) >= r.task.every {
		r.sample()
	}
}

// scaleMS returns each sample's CPU time in ms, scaled to the
// reference speed around the time it ended. Without a reference, or
// with no sample taken, times are returned as measured.
func (r *speedRef) scaleMS(xs []cpuSample) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x.cpu) / 1e6
		if r == nil || len(r.at) == 0 {
			continue
		}
		j, _ := slices.BinarySearch(r.at, x.at)
		j = min(j, len(r.at)-1)
		near := make([]float64, 0, 2*refNeighbours+1)
		for _, t := range r.took[max(0, j-refNeighbours):min(len(r.took), j+refNeighbours+1)] {
			near = append(near, float64(t))
		}
		out[i] *= float64(r.task.nominal) / median(near)
	}
	return out
}
