package main

import (
	"syscall"
	"time"
)

// The host-speed probe. On a shared host a co-tenant slows this core
// by up to half, for seconds to minutes at a time: it shares the
// core's execution units or the memory bandwidth. A run cannot average
// out a slowdown that outlasts it, so ten runs a few minutes apart
// spread wider than any useful bound. Each plain repetition therefore
// times a fixed probe pass after every message, outside the timed
// region, and the end-to-end host metrics count the transfer's wall
// time in probe-seconds. A pass does the two kinds of work that bound
// the stack's host time: table-lookup arithmetic, the shape of a
// scalar GF(256) multiply-add, and 4 KiB copies through a 64 MiB
// working set, the shape of the simulated DMA. The probe is
// benchmark code, so a change to the stack does not move it.
const (
	passesPerProbeSecond = 3000 // a pass takes 0.3 to 0.6 ms on a shared 2-core Xeon
	probeArenaBytes      = 64 << 20
	probeCopies          = 256 // 4 KiB copies per pass
	probeRows            = 4   // table-lookup passes over probeRowBytes
	probeRowBytes        = 32 << 10
)

type probe struct {
	// arena lives outside the Go heap, so heap_peak_MB does not see it.
	arena    []byte
	off      int
	src, dst []byte
	mul      *[256][256]byte // GF(2^8) products, polynomial 0x11d
}

func newProbe() (*probe, error) {
	arena, err := syscall.Mmap(-1, 0, probeArenaBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	for i := range arena {
		arena[i] = byte(i * 131)
	}
	p := &probe{arena: arena, src: make([]byte, probeRowBytes), dst: make([]byte, probeRowBytes), mul: new([256][256]byte)}
	for a := range 256 {
		for b := range 256 {
			p.mul[a][b] = gfMul(byte(a), byte(b))
		}
	}
	for i := range p.src {
		p.src[i] = byte(i)
	}
	return p, nil
}

func (p *probe) close() {
	_ = syscall.Munmap(p.arena) // fails only for a bad mapping, which newProbe cannot return
}

// pass runs the probe once and returns its wall time.
func (p *probe) pass() time.Duration {
	t0 := time.Now()
	for k := range probeRows {
		row := &p.mul[k*29+3]
		for i, s := range p.src {
			p.dst[i] ^= row[s]
		}
		p.src, p.dst = p.dst, p.src
	}
	half := len(p.arena) / 2
	for range probeCopies {
		o := p.off % (half - 4096)
		copy(p.arena[half+o:half+o+4096], p.arena[o:o+4096])
		p.off += 5 * 4096
	}
	return time.Since(t0)
}

// gfMul multiplies in GF(2^8) modulo x^8+x^4+x^3+x^2+1.
func gfMul(a, b byte) byte {
	var r byte
	for b != 0 {
		if b&1 != 0 {
			r ^= a
		}
		hi := a & 0x80
		a <<= 1
		if hi != 0 {
			a ^= 0x1d
		}
		b >>= 1
	}
	return r
}
