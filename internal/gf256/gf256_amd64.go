package gf256

// hasAVX2 selects the AVX2 kernels in gf256_amd64.s. It is read from
// the CPU once at start-up.
var hasAVX2 = detectAVX2()

// detectAVX2 reports whether the CPU has AVX2 and the OS saves the
// YMM registers across context switches (CPUID.1:ECX.OSXSAVE, then
// XCR0 bits 1 and 2).
func detectAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&(osxsave|avx) != osxsave|avx || xgetbv()&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax uint32)

//go:noescape
func mulAVX2(tbl *[32]byte, dst, src []byte)

//go:noescape
func mulAddAVX2(tbl *[32]byte, dst, src []byte)

//go:noescape
func xorAVX2(dst, src []byte)

//go:noescape
func dotAVX2(tbl []byte, stride int, in, out [][]byte, off, n int)

// The *SIMD functions run the AVX2 kernel over the longest prefix that
// is a multiple of 32 bytes and return its length; without AVX2 they
// do nothing and return 0.

func mulSliceSIMD(c byte, dst, src []byte) int {
	if !hasAVX2 {
		return 0
	}
	mulAVX2(&nibbleTables[c], dst, src)
	return len(src) &^ 31
}

func mulAddSliceSIMD(c byte, dst, src []byte) int {
	if !hasAVX2 {
		return 0
	}
	mulAddAVX2(&nibbleTables[c], dst, src)
	return len(src) &^ 31
}

func xorSliceSIMD(dst, src []byte) int {
	if !hasAVX2 {
		return 0
	}
	xorAVX2(dst, src)
	return len(src) &^ 31
}

// dotSIMD computes bytes [lo, lo+n) of every output row, n being the
// longest multiple of 32 up to hi, and returns lo+n. Rows go to the
// kernel in groups of four, each group one pass over the inputs.
// Cutting the range into cache-sized windows, so that later groups
// re-read inputs from cache, measured slower at the 64 KiB shards of
// RS(32,8): each window restarts the prefetcher on every input stream.
func (t *DotTables) dotSIMD(out, in [][]byte, lo, hi int) int {
	n := (hi - lo) &^ 31
	if t.nib == nil || n == 0 {
		return lo
	}
	for r := 0; r < t.rows; r += 4 {
		dotAVX2(t.nib[32*r:], 32*t.rows, in, out[r:min(r+4, t.rows)], lo, n)
	}
	return lo + n
}
