package main

import (
	"runtime/metrics"
	"syscall"
	"time"
)

// sample is what one measured unit of work cost the process.
type sample struct {
	Wall       time.Duration
	CPU        time.Duration // user + system, all threads
	AllocBytes uint64        // heap bytes allocated
	GCCPU      float64       // GC CPU-seconds, as the runtime estimates them
	TotalCPU   float64       // all CPU-seconds, the same estimate's base
}

// meter measures the units of a run. A workload brackets the part of a
// unit that counts — its timed section — with start and stop, so checks
// it runs afterwards stay out of the figures.
type meter struct {
	samples []sample

	begin time.Time
	cpu0  time.Duration
	rt0   [3]float64
}

// runtime/metrics read by the meter: cumulative heap allocation and the
// runtime's CPU estimates.
var meterMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func (m *meter) start() {
	m.rt0 = readRuntime()
	m.cpu0 = processCPU()
	m.begin = time.Now()
}

func (m *meter) stop() sample {
	wall := time.Since(m.begin)
	cpu := processCPU() - m.cpu0
	rt := readRuntime()
	s := sample{
		Wall:       wall,
		CPU:        cpu,
		AllocBytes: uint64(rt[0] - m.rt0[0]),
		GCCPU:      rt[1] - m.rt0[1],
		TotalCPU:   rt[2] - m.rt0[2],
	}
	m.samples = append(m.samples, s)
	return s
}

func readRuntime() [3]float64 {
	s := make([]metrics.Sample, len(meterMetrics))
	for i, name := range meterMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	var out [3]float64
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

// processCPU is the user plus system time of the whole process.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// allocPerCall runs f n times back to back and returns the heap bytes
// it allocated per call. Nothing else may run meanwhile, so it is only
// called outside timed sections.
func allocPerCall(n int, f func(i int) error) (uint64, error) {
	before := readRuntime()[0]
	for i := 0; i < n; i++ {
		if err := f(i); err != nil {
			return 0, err
		}
	}
	return uint64(readRuntime()[0]-before) / uint64(n), nil
}
