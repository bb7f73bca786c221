// Worker-pool parallelism for the EC hot kernels. The paper hides
// encoding behind injection by spreading the XOR/RS kernels over spare
// cores (§5.1.1, Fig 11); here a process-wide pool of GOMAXPROCS
// workers shards the byte range of a submessage; each unit computes
// every output row of its range. Small submessages stay on the
// caller's goroutine — the crossover where handoff overhead is paid
// back is parallelMinShardBytes per shard.

package ec

import (
	"runtime"
	"sync"
)

// parallelMinShardBytes is the shard size below which Encode and
// Reconstruct stay serial. The paper's chunk is 64 KiB, comfortably
// above it; control-sized shards never pay goroutine handoff.
const parallelMinShardBytes = 16 << 10

// segAlign keeps segment boundaries cache-line aligned so two workers
// never read-modify-write bytes of the same line of a parity shard.
const segAlign = 64

var (
	poolOnce    sync.Once
	poolTasks   chan func()
	poolWorkers int
)

// startPool spins up the shared kernel workers. Sized once from
// GOMAXPROCS at first use; later GOMAXPROCS changes do not resize it
// (callers fall back to inline execution when the queue is full).
func startPool() {
	poolWorkers = runtime.GOMAXPROCS(0)
	poolTasks = make(chan func(), 4*poolWorkers)
	for i := 0; i < poolWorkers; i++ {
		go func() {
			for task := range poolTasks {
				task()
			}
		}()
	}
}

// forcedParallelism, when nonzero, overrides the worker count seen by
// the dispatch decision. Set via ForceParallelism.
var forcedParallelism int

// ForceParallelism overrides the dispatch decision to behave as if n
// workers were available (n=1 forces the serial path; 0 restores the
// GOMAXPROCS default) and returns a restore func. It is for
// single-core throughput measurement (Fig 11's Gbit/s/core) and for
// exercising the sharded path on single-core machines; it is not
// synchronized with concurrent Encode/Reconstruct calls.
func ForceParallelism(n int) (restore func()) {
	old := forcedParallelism
	forcedParallelism = n
	return func() { forcedParallelism = old }
}

// parallelism reports how many kernel workers are available.
func parallelism() int {
	if forcedParallelism != 0 {
		return forcedParallelism
	}
	poolOnce.Do(startPool)
	return poolWorkers
}

// useParallel reports whether shards of shardBytes are worth sharding
// across the pool.
func useParallel(shardBytes int) bool {
	return shardBytes >= parallelMinShardBytes && parallelism() > 1
}

// runUnits executes the units across the pool and waits for all of
// them. Units must be independent. If the pool queue is full the
// caller runs the unit inline, so progress never depends on pool
// capacity (no deadlock when many codes encode concurrently).
func runUnits(units []func()) {
	poolOnce.Do(startPool)
	var wg sync.WaitGroup
	wg.Add(len(units))
	for _, u := range units {
		u := u
		wrapped := func() {
			u()
			wg.Done()
		}
		select {
		case poolTasks <- wrapped:
		default:
			wrapped()
		}
	}
	wg.Wait()
}

// byteSegments splits [0,size) into roughly nseg cache-line-aligned
// ranges (the last takes the remainder).
func byteSegments(size, nseg int) [][2]int {
	if nseg < 1 {
		nseg = 1
	}
	seg := (size/nseg + segAlign - 1) &^ (segAlign - 1)
	if seg < segAlign {
		seg = segAlign
	}
	var out [][2]int
	for lo := 0; lo < size; lo += seg {
		hi := lo + seg
		if hi > size {
			hi = size
		}
		out = append(out, [2]int{lo, hi})
	}
	return out
}

// forEachRange runs fn over [0,size): sharded into cache-line-aligned
// byte ranges across the worker pool when the shard size makes it
// profitable, one serial call otherwise. Ranges are at least
// parallelMinShardBytes wide, and there are at most as many as
// workers. This is the single dispatch point for both codes' Encode
// and Reconstruct.
func forEachRange(size int, fn func(lo, hi int)) {
	if !useParallel(size) {
		fn(0, size)
		return
	}
	segs := byteSegments(size, min(parallelism(), size/parallelMinShardBytes))
	units := make([]func(), len(segs))
	for i, s := range segs {
		lo, hi := s[0], s[1]
		units[i] = func() { fn(lo, hi) }
	}
	runUnits(units)
}
