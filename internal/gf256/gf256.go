// Package gf256 implements arithmetic over the finite field GF(2^8)
// with the primitive polynomial x^8 + x^4 + x^3 + x^2 + 1 (0x11D), the
// field used by Reed–Solomon codes such as those in Intel ISA-L that
// the paper benchmarks against (§5.1.1). It provides scalar and vector
// operations plus the matrix routines needed by a systematic MDS code.
package gf256

import "encoding/binary"

// Polynomial is the primitive reduction polynomial of the field.
const Polynomial = 0x11D

var (
	expTable [512]byte // exp[i] = α^i, doubled to skip the mod-255 in Mul
	logTable [256]byte // log[x] = i s.t. α^i = x, log[0] unused
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		expTable[i] = byte(x)
		logTable[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= Polynomial
		}
	}
	for i := 255; i < 512; i++ {
		expTable[i] = expTable[i-255]
	}
}

// Add returns a+b in GF(2^8) (carry-less, same as subtraction).
func Add(a, b byte) byte { return a ^ b }

// Mul returns a·b in GF(2^8).
func Mul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return expTable[int(logTable[a])+int(logTable[b])]
}

// Div returns a/b in GF(2^8). Div panics if b is zero.
func Div(a, b byte) byte {
	if b == 0 {
		panic("gf256: division by zero")
	}
	if a == 0 {
		return 0
	}
	return expTable[int(logTable[a])-int(logTable[b])+255]
}

// Inv returns the multiplicative inverse of a. Inv panics on zero.
func Inv(a byte) byte {
	if a == 0 {
		panic("gf256: inverse of zero")
	}
	return expTable[255-int(logTable[a])]
}

// Exp returns α^n for n >= 0.
func Exp(n int) byte { return expTable[n%255] }

// MulSlice sets dst[i] = c·src[i]. dst and src must have equal length.
// Like MulAddSlice it runs the AVX2 kernel where the CPU has one.
func MulSlice(c byte, dst, src []byte) {
	if len(dst) != len(src) {
		panic("gf256: MulSlice length mismatch")
	}
	if c == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	if c == 1 {
		copy(dst, src)
		return
	}
	n := mulSliceSIMD(c, dst, src)
	mulSliceGo(c, dst[n:], src[n:])
}

// mulSliceGo is MulSlice's pure-Go word kernel: the same
// word-assembled lookup as mulAddSliceGo, minus the dst read.
func mulSliceGo(c byte, dst, src []byte) {
	mt := mulTableRow(c)
	n := len(src)
	i := 0
	for ; i+8 <= n; i += 8 {
		w := binary.NativeEndian.Uint64(src[i:])
		p := uint64(mt[byte(w)]) |
			uint64(mt[byte(w>>8)])<<8 |
			uint64(mt[byte(w>>16)])<<16 |
			uint64(mt[byte(w>>24)])<<24 |
			uint64(mt[byte(w>>32)])<<32 |
			uint64(mt[byte(w>>40)])<<40 |
			uint64(mt[byte(w>>48)])<<48 |
			uint64(mt[byte(w>>56)])<<56
		binary.NativeEndian.PutUint64(dst[i:], p)
	}
	for ; i < n; i++ {
		dst[i] = mt[src[i]]
	}
}

// MulAddSlice sets dst[i] ^= c·src[i], the core kernel of RS encoding.
//
// On amd64 CPUs with AVX2 (detected once at start-up from CPUID and
// XGETBV) it runs the split-nibble kernel ISA-L uses: c·x =
// lo[x&0xF] ⊕ hi[x>>4], two 16-entry tables that VPSHUFB looks up for
// 32 bytes at once, over the longest multiple of 32 bytes. The pure-Go
// word kernel (mulAddSliceGo) finishes the tail, and it runs the whole
// slice on other CPUs and architectures. Both give the same bytes.
func MulAddSlice(c byte, dst, src []byte) {
	if len(dst) != len(src) {
		panic("gf256: MulAddSlice length mismatch")
	}
	if c == 0 {
		return
	}
	if c == 1 {
		XORSlice(dst, src)
		return
	}
	n := mulAddSliceSIMD(c, dst, src)
	mulAddSliceGo(c, dst[n:], src[n:])
}

// mulAddSliceGo is MulAddSlice's pure-Go word kernel. It loads 8
// source bytes as one uint64 (encoding/binary view), looks each byte
// up in the constant's 256-entry product row, assembles the 8 products
// into a word, and folds it into dst with a single 64-bit
// read-modify-write — one memory round trip per 8 bytes instead of 8
// byte-sized ones.
//
// Two word-parallel alternatives were benchmarked and rejected: the
// split low/high-nibble table kernel needs 16 scalar lookups per word
// and lands at ~0.6x of this kernel, and the bit-plane SWAR multiply
// (kept as a tested reference in gf256_test.go) at ~0.95x. Without
// SIMD byte shuffles, the full-row lookup is the fastest pure-Go form.
func mulAddSliceGo(c byte, dst, src []byte) {
	mt := mulTableRow(c)
	n := len(src)
	i := 0
	for ; i+8 <= n; i += 8 {
		w := binary.NativeEndian.Uint64(src[i:])
		p := uint64(mt[byte(w)]) |
			uint64(mt[byte(w>>8)])<<8 |
			uint64(mt[byte(w>>16)])<<16 |
			uint64(mt[byte(w>>24)])<<24 |
			uint64(mt[byte(w>>32)])<<32 |
			uint64(mt[byte(w>>40)])<<40 |
			uint64(mt[byte(w>>48)])<<48 |
			uint64(mt[byte(w>>56)])<<56
		binary.NativeEndian.PutUint64(dst[i:], binary.NativeEndian.Uint64(dst[i:])^p)
	}
	for ; i < n; i++ {
		dst[i] ^= mt[src[i]]
	}
}

// mulAddSliceTable is the byte-at-a-time table kernel, kept as the
// reference implementation for equivalence tests and benchmarks.
func mulAddSliceTable(c byte, dst, src []byte) {
	mt := mulTableRow(c)
	for i, s := range src {
		dst[i] ^= mt[s]
	}
}

// XORSlice sets dst[i] ^= src[i] — the paper's "≈100 lines of C++
// with AVX-512" XOR kernel equivalent. It runs an AVX2 kernel where
// the CPU has one and the pure-Go word kernel otherwise.
func XORSlice(dst, src []byte) {
	if len(dst) != len(src) {
		panic("gf256: XORSlice length mismatch")
	}
	n := xorSliceSIMD(dst, src)
	xorSliceGo(dst[n:], src[n:])
}

// xorSliceGo is XORSlice's pure-Go word kernel: four uint64 words
// (32 bytes) per iteration via encoding/binary views instead of
// byte-at-a-time.
func xorSliceGo(dst, src []byte) {
	n := len(dst)
	i := 0
	for ; i+32 <= n; i += 32 {
		w0 := binary.NativeEndian.Uint64(dst[i:]) ^ binary.NativeEndian.Uint64(src[i:])
		w1 := binary.NativeEndian.Uint64(dst[i+8:]) ^ binary.NativeEndian.Uint64(src[i+8:])
		w2 := binary.NativeEndian.Uint64(dst[i+16:]) ^ binary.NativeEndian.Uint64(src[i+16:])
		w3 := binary.NativeEndian.Uint64(dst[i+24:]) ^ binary.NativeEndian.Uint64(src[i+24:])
		binary.NativeEndian.PutUint64(dst[i:], w0)
		binary.NativeEndian.PutUint64(dst[i+8:], w1)
		binary.NativeEndian.PutUint64(dst[i+16:], w2)
		binary.NativeEndian.PutUint64(dst[i+24:], w3)
	}
	for ; i+8 <= n; i += 8 {
		binary.NativeEndian.PutUint64(dst[i:],
			binary.NativeEndian.Uint64(dst[i:])^binary.NativeEndian.Uint64(src[i:]))
	}
	xorSliceScalar(dst[i:], src[i:])
}

// xorSliceScalar is the byte-at-a-time XOR, kept as the reference
// implementation and the sub-word tail.
func xorSliceScalar(dst, src []byte) {
	for i := range src {
		dst[i] ^= src[i]
	}
}

// mulTables caches the 256-entry product row for each constant c, so
// the pure-Go kernels do one table lookup per byte. nibbleTables holds
// each constant's split-nibble tables for the SIMD kernels: c·x for
// x = 0..15, then c·(x<<4) for x = 0..15.
var (
	mulTables    [256]*[256]byte
	nibbleTables [256][32]byte
)

func init() {
	for c := 0; c < 256; c++ {
		var row [256]byte
		for x := 0; x < 256; x++ {
			row[x] = Mul(byte(c), byte(x))
		}
		mulTables[c] = &row
		for x := 0; x < 16; x++ {
			nibbleTables[c][x] = row[x]
			nibbleTables[c][16+x] = row[x<<4]
		}
	}
}

func mulTableRow(c byte) *[256]byte { return mulTables[c] }
