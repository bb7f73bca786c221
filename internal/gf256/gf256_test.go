package gf256

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFieldAxioms(t *testing.T) {
	// associativity, commutativity, distributivity over random triples
	check := func(a, b, c byte) bool {
		if Mul(a, b) != Mul(b, a) {
			return false
		}
		if Mul(Mul(a, b), c) != Mul(a, Mul(b, c)) {
			return false
		}
		if Mul(a, Add(b, c)) != Add(Mul(a, b), Mul(a, c)) {
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestMulIdentityAndZero(t *testing.T) {
	for x := 0; x < 256; x++ {
		b := byte(x)
		if Mul(b, 1) != b || Mul(1, b) != b {
			t.Fatalf("1 is not identity for %d", x)
		}
		if Mul(b, 0) != 0 || Mul(0, b) != 0 {
			t.Fatalf("0·%d != 0", x)
		}
		if Add(b, b) != 0 {
			t.Fatalf("x+x != 0 for %d", x)
		}
	}
}

func TestInverses(t *testing.T) {
	for x := 1; x < 256; x++ {
		b := byte(x)
		if Mul(b, Inv(b)) != 1 {
			t.Fatalf("x·Inv(x) != 1 for %d", x)
		}
		if Div(b, b) != 1 {
			t.Fatalf("x/x != 1 for %d", x)
		}
		if got := Div(Mul(b, 37), 37); got != b {
			t.Fatalf("(x·37)/37 = %d, want %d", got, x)
		}
	}
}

func TestDivPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Div by zero did not panic")
		}
	}()
	Div(5, 0)
}

func TestInvPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Inv(0) did not panic")
		}
	}()
	Inv(0)
}

func TestExpCyclic(t *testing.T) {
	if Exp(0) != 1 {
		t.Fatalf("α^0 = %d", Exp(0))
	}
	if Exp(255) != 1 {
		t.Fatalf("α^255 = %d, want 1 (multiplicative order 255)", Exp(255))
	}
	seen := map[byte]bool{}
	for i := 0; i < 255; i++ {
		v := Exp(i)
		if seen[v] {
			t.Fatalf("α^%d = %d repeats — α is not primitive", i, v)
		}
		seen[v] = true
	}
}

func TestVectorKernelsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(100) + 1
		c := byte(rng.Intn(256))
		src := make([]byte, n)
		dst := make([]byte, n)
		rng.Read(src)
		rng.Read(dst)

		wantMul := make([]byte, n)
		wantMulAdd := make([]byte, n)
		wantXOR := make([]byte, n)
		for i := 0; i < n; i++ {
			wantMul[i] = Mul(c, src[i])
			wantMulAdd[i] = dst[i] ^ Mul(c, src[i])
			wantXOR[i] = dst[i] ^ src[i]
		}

		got := append([]byte(nil), dst...)
		MulSlice(c, got, src)
		for i := range got {
			if got[i] != wantMul[i] {
				t.Fatalf("MulSlice(c=%d)[%d] = %d, want %d", c, i, got[i], wantMul[i])
			}
		}

		got = append([]byte(nil), dst...)
		MulAddSlice(c, got, src)
		for i := range got {
			if got[i] != wantMulAdd[i] {
				t.Fatalf("MulAddSlice(c=%d)[%d] = %d, want %d", c, i, got[i], wantMulAdd[i])
			}
		}

		got = append([]byte(nil), dst...)
		XORSlice(got, src)
		for i := range got {
			if got[i] != wantXOR[i] {
				t.Fatalf("XORSlice[%d] = %d, want %d", i, got[i], wantXOR[i])
			}
		}
	}
}

func TestKernelLengthMismatchPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { MulSlice(3, make([]byte, 4), make([]byte, 5)) },
		func() { MulAddSlice(3, make([]byte, 4), make([]byte, 5)) },
		func() { XORSlice(make([]byte, 4), make([]byte, 5)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic on length mismatch")
				}
			}()
			fn()
		}()
	}
}

func TestMatrixInvertRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		n := rng.Intn(8) + 1
		// random invertible matrix: retry until Invert succeeds
		var m, inv *Matrix
		for {
			m = NewMatrix(n, n)
			rng.Read(m.Data)
			var err error
			inv, err = m.Invert()
			if err == nil {
				break
			}
		}
		prod := m.Mul(inv)
		id := Identity(n)
		for i := range prod.Data {
			if prod.Data[i] != id.Data[i] {
				t.Fatalf("M·M⁻¹ != I for n=%d", n)
			}
		}
	}
}

func TestSingularMatrix(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 0, 3)
	m.Set(0, 1, 5)
	m.Set(1, 0, 3)
	m.Set(1, 1, 5) // duplicate row
	if _, err := m.Invert(); err == nil {
		t.Fatal("inverting a singular matrix succeeded")
	}
}

func TestVandermondeSubmatricesInvertible(t *testing.T) {
	// The MDS property relies on every k-row subset of the encoding
	// matrix being invertible. Spot-check random subsets.
	const k, m = 6, 4
	v := Vandermonde(k+m, k)
	top, err := v.SubMatrix(0, k, 0, k).Invert()
	if err != nil {
		t.Fatalf("top of Vandermonde not invertible: %v", err)
	}
	enc := v.Mul(top) // systematic form
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		rows := rng.Perm(k + m)[:k]
		sub := NewMatrix(k, k)
		for i, r := range rows {
			copy(sub.Row(i), enc.Row(r))
		}
		if _, err := sub.Invert(); err != nil {
			t.Fatalf("k-subset %v of systematic Vandermonde not invertible: %v", rows, err)
		}
	}
}

func TestMatrixShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape mismatch")
		}
	}()
	NewMatrix(2, 3).Mul(NewMatrix(2, 3))
}

// sliceKernel is one implementation of MulSlice, MulAddSlice or
// XORSlice (c is ignored for XOR). It returns how many leading bytes it
// covered: all of them except for the SIMD kernels, which leave the
// tail past the last multiple of 32 bytes untouched.
type sliceKernel struct {
	name string
	run  func(c byte, dst, src []byte) int
	// ref is the byte-at-a-time reference the kernel must match.
	ref func(c byte, dst, src []byte)
}

func whole(f func(c byte, dst, src []byte)) func(c byte, dst, src []byte) int {
	return func(c byte, dst, src []byte) int { f(c, dst, src); return len(src) }
}

func mulSliceTable(c byte, dst, src []byte) {
	clear(dst)
	mulAddSliceTable(c, dst, src)
}

func xorRef(_ byte, dst, src []byte) { xorSliceScalar(dst, src) }

// sliceKernels lists every path by name: the exported dispatchers,
// the pure-Go word kernels and the SIMD kernels, each called directly.
var sliceKernels = []sliceKernel{
	{"MulSlice", whole(MulSlice), mulSliceTable},
	{"mulSliceGo", whole(mulSliceGo), mulSliceTable},
	{"mulSliceSIMD", mulSliceSIMD, mulSliceTable},
	{"MulAddSlice", whole(MulAddSlice), mulAddSliceTable},
	{"mulAddSliceGo", whole(mulAddSliceGo), mulAddSliceTable},
	{"mulAddSliceSIMD", mulAddSliceSIMD, mulAddSliceTable},
	{"XORSlice", whole(func(_ byte, dst, src []byte) { XORSlice(dst, src) }), xorRef},
	{"xorSliceGo", whole(func(_ byte, dst, src []byte) { xorSliceGo(dst, src) }), xorRef},
	{"xorSliceSIMD", func(_ byte, dst, src []byte) int { return xorSliceSIMD(dst, src) }, xorRef},
}

// checkKernel runs k on the view back[off:off+len(src)] and checks it
// against k.ref over the bytes it reports covering, and that it left
// every other byte of back alone.
func checkKernel(t *testing.T, k sliceKernel, c byte, back, src []byte, off int) {
	t.Helper()
	n := len(src)
	got := append([]byte(nil), back...)
	done := k.run(c, got[off:off+n], src)
	if hasAVX2 && done != n && done != n&^31 {
		t.Fatalf("%s(c=%d, n=%d) covered %d bytes", k.name, c, n, done)
	}
	want := append([]byte(nil), back...)
	k.ref(c, want[off:off+done], src[:done])
	if !bytes.Equal(got, want) {
		i := 0
		for got[i] == want[i] {
			i++
		}
		t.Fatalf("%s(c=%d, n=%d, off=%d) diverges from the reference at byte %d of the backing array (view %d..%d, covered %d)",
			k.name, c, n, off, i, off, off+n, done)
	}
}

// TestWordKernelsMatchScalarAcrossSizes drives every kernel path across
// every constant and across lengths from 0 to 4 KiB straddling the
// word and SIMD block boundaries (tails of 1..31 bytes), comparing each
// against the byte-at-a-time reference inside guard bytes.
func TestWordKernelsMatchScalarAcrossSizes(t *testing.T) {
	if !hasAVX2 {
		t.Log("no AVX2: the SIMD entries cover nothing")
	}
	rng := rand.New(rand.NewSource(2))
	var sizes []int
	for n := 0; n <= 97; n++ {
		sizes = append(sizes, n)
	}
	sizes = append(sizes, 127, 255, 256, 1000, 4065, 4095, 4096, 4099)
	const guard = 40
	for _, n := range sizes {
		src := make([]byte, n)
		back := make([]byte, n+2*guard)
		rng.Read(src)
		rng.Read(back)
		for _, k := range sliceKernels {
			for c := 0; c < 256; c++ {
				checkKernel(t, k, byte(c), back, src, guard)
			}
		}
	}
}

// TestWordKernelsUnalignedViews exercises every kernel path on views at
// every offset 0..31 of a backing array, since callers hand in views
// into larger buffers (shards of a chunk, MTU payloads mid-message).
func TestWordKernelsUnalignedViews(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	back := make([]byte, 4<<10+64)
	src := make([]byte, 4<<10+64)
	rng.Read(src)
	for off := 0; off < 32; off++ {
		for _, n := range []int{31, 400, 4<<10 - 1, 4 << 10} {
			rng.Read(back)
			for _, k := range sliceKernels {
				checkKernel(t, k, 0xB7, back, src[32-off:32-off+n], off)
			}
		}
	}
}

// TestDotMatchesRowReference checks the fused dot product against a
// per-row mulAddSliceTable reference for 1..8 rows and 1..32 inputs,
// through Dot and through its pure-Go and SIMD paths called directly.
// Only out[r][lo:hi] may change.
func TestDotMatchesRowReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	type span struct{ size, lo, hi int }
	spans := []span{{167, 0, 167}, {167, 5, 140}, {40, 9, 9}, {4<<10 + 72, 0, 4<<10 + 72}}
	paths := []struct {
		name string
		run  func(d *DotTables, out, in [][]byte, lo, hi int) int
	}{
		{"Dot", func(d *DotTables, out, in [][]byte, lo, hi int) int { d.Dot(out, in, lo, hi); return hi }},
		{"dotGo", func(d *DotTables, out, in [][]byte, lo, hi int) int { d.dotGo(out, in, lo, hi); return hi }},
		{"dotSIMD", func(d *DotTables, out, in [][]byte, lo, hi int) int { return d.dotSIMD(out, in, lo, hi) }},
	}
	for rows := 1; rows <= 8; rows++ {
		for k := 1; k <= 32; k++ {
			sp := spans[(rows*32+k)%len(spans)]
			if sp.size > 1000 && (rows+k)%5 != 0 {
				sp = spans[0] // the multi-window span on a sample of shapes
			}
			m := NewMatrix(rows, k)
			rng.Read(m.Data)
			d := NewDotTables(m)
			in := make([][]byte, k)
			for j := range in {
				in[j] = make([]byte, sp.size)
				rng.Read(in[j])
			}
			orig := make([][]byte, rows)
			for r := range orig {
				orig[r] = make([]byte, sp.size)
				rng.Read(orig[r])
			}
			for _, p := range paths {
				got := make([][]byte, rows)
				for r := range got {
					got[r] = append([]byte(nil), orig[r]...)
				}
				done := p.run(d, got, in, sp.lo, sp.hi)
				if hasAVX2 && done != sp.hi && done != sp.lo+(sp.hi-sp.lo)&^31 {
					t.Fatalf("%s rows=%d k=%d: covered up to %d of [%d,%d)", p.name, rows, k, done, sp.lo, sp.hi)
				}
				for r := range got {
					want := append([]byte(nil), orig[r]...)
					if done > sp.lo {
						clear(want[sp.lo:done])
						for j := range in {
							mulAddSliceTable(m.At(r, j), want[sp.lo:done], in[j][sp.lo:done])
						}
					}
					if !bytes.Equal(got[r], want) {
						t.Fatalf("%s rows=%d k=%d [%d,%d): row %d diverges from the reference", p.name, rows, k, sp.lo, sp.hi, r)
					}
				}
			}
		}
	}
}

func TestDotPanicsOnBadShape(t *testing.T) {
	d := NewDotTables(NewMatrix(2, 3))
	ok := func() ([][]byte, [][]byte) {
		return [][]byte{make([]byte, 64), make([]byte, 64)},
			[][]byte{make([]byte, 64), make([]byte, 64), make([]byte, 64)}
	}
	for name, fn := range map[string]func(){
		"rows":        func() { out, in := ok(); d.Dot(out[:1], in, 0, 64) },
		"cols":        func() { out, in := ok(); d.Dot(out, in[:2], 0, 64) },
		"short out":   func() { out, in := ok(); out[1] = out[1][:63]; d.Dot(out, in, 0, 64) },
		"short in":    func() { out, in := ok(); in[2] = in[2][:32]; d.Dot(out, in, 0, 64) },
		"range":       func() { out, in := ok(); d.Dot(out, in, 33, 32) },
		"negative lo": func() { out, in := ok(); d.Dot(out, in, -1, 32) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Dot did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// lanesLSB has the least-significant bit of every byte lane set.
const lanesLSB = 0x0101010101010101

// mulAddSliceNibbleSWAR is the split low/high-nibble bit-plane SWAR
// multiply: c·x is GF(2)-linear in the bits of x, so the product
// splits as c·x = ⊕_{i<4} x_i·(c·α^i) ⊕ ⊕_{4≤i<8} x_i·(c·α^i); each
// bit-plane of a uint64 word (8 lanes) is extracted and multiplied by
// the broadcast per-plane product. Kept as a tested, benchmarked
// reference: it is branch- and table-load-free but measures ~0.95x of
// the shipped full-row lookup kernel in pure Go.
func mulAddSliceNibbleSWAR(c byte, dst, src []byte) {
	mt := mulTableRow(c)
	lo0, lo1 := uint64(mt[1]), uint64(mt[2])
	lo2, lo3 := uint64(mt[4]), uint64(mt[8])
	hi0, hi1 := uint64(mt[16]), uint64(mt[32])
	hi2, hi3 := uint64(mt[64]), uint64(mt[128])
	n := len(src)
	i := 0
	for ; i+8 <= n; i += 8 {
		w := binary.NativeEndian.Uint64(src[i:])
		// low-nibble planes
		p := (w & lanesLSB) * lo0
		p ^= (w >> 1 & lanesLSB) * lo1
		p ^= (w >> 2 & lanesLSB) * lo2
		p ^= (w >> 3 & lanesLSB) * lo3
		// high-nibble planes
		p ^= (w >> 4 & lanesLSB) * hi0
		p ^= (w >> 5 & lanesLSB) * hi1
		p ^= (w >> 6 & lanesLSB) * hi2
		p ^= (w >> 7 & lanesLSB) * hi3
		binary.NativeEndian.PutUint64(dst[i:], binary.NativeEndian.Uint64(dst[i:])^p)
	}
	mulAddSliceTable(c, dst[i:], src[i:])
}

// TestNibbleSWARMatchesTable keeps the SWAR reference honest across
// every constant.
func TestNibbleSWARMatchesTable(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	src := make([]byte, 1003)
	orig := make([]byte, 1003)
	rng.Read(src)
	rng.Read(orig)
	for c := 0; c < 256; c++ {
		want := append([]byte(nil), orig...)
		mulAddSliceTable(byte(c), want, src)
		got := append([]byte(nil), orig...)
		mulAddSliceNibbleSWAR(byte(c), got, src)
		if !bytes.Equal(got, want) {
			t.Fatalf("nibble SWAR diverges from table reference at c=%d", c)
		}
	}
}

func benchKernelSizes(b *testing.B, run func(dst, src []byte)) {
	for _, n := range []int{64, 4 << 10, 64 << 10, 1 << 20} {
		b.Run(sizeName(n), func(b *testing.B) {
			src := make([]byte, n)
			dst := make([]byte, n)
			rand.New(rand.NewSource(1)).Read(src)
			b.SetBytes(int64(n))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				run(dst, src)
			}
		})
	}
}

func sizeName(n int) string {
	if n >= 1<<20 {
		return fmt.Sprintf("%dMiB", n>>20)
	}
	if n >= 1<<10 {
		return fmt.Sprintf("%dKiB", n>>10)
	}
	return fmt.Sprintf("%dB", n)
}

// BenchmarkXORSlice / BenchmarkMulAddSlice track the word-parallel
// kernels; the *Scalar variants are the seed byte-at-a-time paths the
// acceptance criteria compare against.
func BenchmarkXORSlice(b *testing.B) {
	benchKernelSizes(b, XORSlice)
}

func BenchmarkXORSliceScalar(b *testing.B) {
	benchKernelSizes(b, xorSliceScalar)
}

func BenchmarkMulAddSlice(b *testing.B) {
	benchKernelSizes(b, func(dst, src []byte) { MulAddSlice(0x57, dst, src) })
}

func BenchmarkMulAddSliceTable(b *testing.B) {
	benchKernelSizes(b, func(dst, src []byte) { mulAddSliceTable(0x57, dst, src) })
}

func BenchmarkMulAddSliceNibbleSWAR(b *testing.B) {
	benchKernelSizes(b, func(dst, src []byte) { mulAddSliceNibbleSWAR(0x57, dst, src) })
}

// Legacy names kept so the bench trajectory stays comparable.
func BenchmarkMulAddSlice64K(b *testing.B) {
	src := make([]byte, 64<<10)
	dst := make([]byte, 64<<10)
	rand.New(rand.NewSource(1)).Read(src)
	b.SetBytes(64 << 10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MulAddSlice(0x57, dst, src)
	}
}

func BenchmarkXORSlice64K(b *testing.B) {
	src := make([]byte, 64<<10)
	dst := make([]byte, 64<<10)
	rand.New(rand.NewSource(1)).Read(src)
	b.SetBytes(64 << 10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		XORSlice(dst, src)
	}
}

// BenchmarkDot32x8 runs the fused dot product at RS(32,8)'s shape: 8
// output rows over 32 inputs of 64 KiB, counting input bytes.
// BenchmarkDot32x8Go is the pure-Go row-at-a-time path on the same
// shape.
func BenchmarkDot32x8(b *testing.B) {
	benchDot(b, (*DotTables).Dot)
}

func BenchmarkDot32x8Go(b *testing.B) {
	benchDot(b, (*DotTables).dotGo)
}

func benchDot(b *testing.B, dot func(d *DotTables, out, in [][]byte, lo, hi int)) {
	const rows, k, n = 8, 32, 64 << 10
	rng := rand.New(rand.NewSource(1))
	m := NewMatrix(rows, k)
	rng.Read(m.Data)
	d := NewDotTables(m)
	in := make([][]byte, k)
	for j := range in {
		in[j] = make([]byte, n)
		rng.Read(in[j])
	}
	out := make([][]byte, rows)
	for r := range out {
		out[r] = make([]byte, n)
	}
	b.SetBytes(k * n)
	b.ReportAllocs()
	for b.Loop() {
		dot(d, out, in, 0, n)
	}
}
