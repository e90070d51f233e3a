package main

import (
	"encoding/binary"
	"hash/crc32"
	"sort"
	"time"
)

// calibRef is the calibration pass's wall time on the reference host (a
// 2-vCPU x86-64 container, GOMAXPROCS=1, Go 1.24). Host times are reported
// as raw × calibRef / measured-calibration, so a calibrated nanosecond is a
// nanosecond on that host: the unit survives, and machine-speed drift
// between and within runs divides out.
const calibRef = 28 * time.Millisecond

// calibState is the calibration pass's working set, allocated once so a
// pass never allocates: its time then does not depend on the heap the
// workload left behind or on when the collector runs.
var calibState struct {
	buf  []byte
	ints []int
	m    map[uint64]int
	sink uint64
}

// calibrate runs one calibration pass and returns its wall time. The mix
// imitates what the simulator spends host time on — filling and
// checksumming payload bytes (functional copies, CRC ops), sorting, map
// churn (ATC, DDIO and client maps), and goroutine handoffs (every
// sim.Proc switch is an unbuffered channel handoff) — using the standard
// library only, so it cannot move when the simulator changes.
func calibrate() time.Duration {
	cs := &calibState
	if cs.buf == nil {
		cs.buf = make([]byte, 1<<20)
		cs.ints = make([]int, 1<<16)
		cs.m = make(map[uint64]int, 1<<16)
	}
	start := time.Now()
	x := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	var sum uint64

	for i := 0; i+8 <= len(cs.buf); i += 8 {
		binary.LittleEndian.PutUint64(cs.buf[i:], next())
	}
	for i := 0; i < 8; i++ {
		sum += uint64(crc32.ChecksumIEEE(cs.buf))
	}

	for i := range cs.ints {
		cs.ints[i] = int(next() >> 1)
	}
	sort.Ints(cs.ints)
	sum += uint64(cs.ints[len(cs.ints)/2])

	for i := 0; i < 1<<16; i++ {
		v := next()
		cs.m[v&0xFFFF] = i
		delete(cs.m, (v>>16)&0xFFFF)
	}
	sum += uint64(len(cs.m))

	ping, pong := make(chan uint64), make(chan uint64)
	go func() {
		for v := range ping {
			pong <- v + 1
		}
		close(pong)
	}()
	for i := 0; i < 1<<15; i++ {
		ping <- next()
		sum += <-pong
	}
	close(ping)
	<-pong

	cs.sink += sum
	return time.Since(start)
}

// calibrated converts a raw host duration measured between two
// calibration passes into reference-host nanoseconds.
func calibrated(raw time.Duration, before, after time.Duration) float64 {
	return float64(raw) * float64(calibRef) / (float64(before+after) / 2)
}
