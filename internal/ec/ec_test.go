package ec

import (
	"bytes"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"sdrrdma/internal/gf256"
)

func makeShards(rng *rand.Rand, n, size int) [][]byte {
	shards := make([][]byte, n)
	for i := range shards {
		shards[i] = make([]byte, size)
		rng.Read(shards[i])
	}
	return shards
}

func roundTrip(t *testing.T, c Code, lose []int, size int, wantErr bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	k, m := c.K(), c.M()
	data := makeShards(rng, k, size)
	parity := makeShards(rng, m, size)
	orig := make([][]byte, k)
	for i := range data {
		orig[i] = append([]byte(nil), data[i]...)
	}
	if err := c.Encode(data, parity); err != nil {
		t.Fatalf("%s Encode: %v", c.Name(), err)
	}
	shards := append(append([][]byte{}, data...), parity...)
	present := make([]bool, k+m)
	for i := range present {
		present[i] = true
	}
	for _, l := range lose {
		present[l] = false
		for b := range shards[l] {
			shards[l][b] = 0xEE // corrupt lost shards to catch stale reads
		}
	}
	err := c.Reconstruct(shards, present)
	if wantErr {
		if err != ErrUnrecoverable {
			t.Fatalf("%s lose=%v: err=%v, want ErrUnrecoverable", c.Name(), lose, err)
		}
		return
	}
	if err != nil {
		t.Fatalf("%s Reconstruct(lose=%v): %v", c.Name(), lose, err)
	}
	for i := 0; i < k; i++ {
		if !bytes.Equal(shards[i], orig[i]) {
			t.Fatalf("%s lose=%v: data shard %d corrupted after reconstruct", c.Name(), lose, i)
		}
	}
}

func TestXORBasicRecovery(t *testing.T) {
	c, err := NewXOR(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	// one data block per group: recoverable
	roundTrip(t, c, []int{0, 1, 2, 3}, 512, false)
	// single loss
	roundTrip(t, c, []int{5}, 512, false)
	// parity-only losses: trivially fine
	roundTrip(t, c, []int{8, 9, 10, 11}, 512, false)
	// two data blocks in the same group (0 and 4 are both ≡0 mod 4)
	roundTrip(t, c, []int{0, 4}, 512, true)
	// data + its own parity in one group
	roundTrip(t, c, []int{1, 9}, 512, true)
	// no loss at all
	roundTrip(t, c, nil, 64, false)
}

func TestXORRejectsBadGeometry(t *testing.T) {
	if _, err := NewXOR(7, 3); err == nil {
		t.Fatal("NewXOR(7,3) should fail: m does not divide k")
	}
	if _, err := NewXOR(0, 1); err == nil {
		t.Fatal("NewXOR(0,1) should fail")
	}
}

func TestRSBasicRecovery(t *testing.T) {
	c, err := NewRS(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	// any m losses are recoverable, regardless of position
	roundTrip(t, c, []int{0, 1, 2, 3}, 512, false)
	roundTrip(t, c, []int{0, 4, 8, 11}, 512, false)
	roundTrip(t, c, []int{8, 9, 10, 11}, 512, false)
	roundTrip(t, c, []int{7}, 64, false)
	roundTrip(t, c, nil, 64, false)
	// m+1 losses: unrecoverable
	roundTrip(t, c, []int{0, 1, 2, 3, 4}, 512, true)
}

func TestRSPaperConfig(t *testing.T) {
	// The paper's chosen balanced configuration EC(32, 8) (§5.2.1).
	c, err := NewRS(32, 8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		nLose := rng.Intn(9) // 0..8 losses, all recoverable
		lose := rng.Perm(40)[:nLose]
		roundTrip(t, c, lose, 1024, false)
	}
	for trial := 0; trial < 10; trial++ {
		nLose := 9 + rng.Intn(8)
		lose := rng.Perm(40)[:nLose]
		roundTrip(t, c, lose, 1024, true)
	}
}

func TestRSRejectsBadGeometry(t *testing.T) {
	if _, err := NewRS(200, 100); err == nil {
		t.Fatal("NewRS(200,100) should fail: exceeds field size")
	}
	if _, err := NewRS(0, 4); err == nil {
		t.Fatal("NewRS(0,4) should fail")
	}
}

// Property: RS recovers from ANY loss pattern with ≤ m losses; XOR
// recovers iff no modulo group loses 2+ blocks. CanRecover must agree
// with Reconstruct success.
func TestRecoveryProperty(t *testing.T) {
	rsCode, _ := NewRS(6, 3)
	xorCode, _ := NewXOR(6, 3)
	check := func(seed int64, lossMask uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		for _, c := range []Code{rsCode, xorCode} {
			k, m := c.K(), c.M()
			data := makeShards(rng, k, 32)
			parity := makeShards(rng, m, 32)
			orig := make([][]byte, k)
			for i := range data {
				orig[i] = append([]byte(nil), data[i]...)
			}
			if err := c.Encode(data, parity); err != nil {
				return false
			}
			shards := append(append([][]byte{}, data...), parity...)
			present := make([]bool, k+m)
			for i := range present {
				present[i] = lossMask&(1<<uint(i)) == 0
			}
			can := c.CanRecover(present)
			err := c.Reconstruct(shards, append([]bool(nil), present...))
			if can != (err == nil) {
				return false
			}
			if err == nil {
				for i := 0; i < k; i++ {
					if present[i] && !bytes.Equal(shards[i], orig[i]) {
						return false
					}
				}
				// verify recovered ones too
				for i := 0; i < k; i++ {
					if !bytes.Equal(shards[i], orig[i]) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeShardMismatch(t *testing.T) {
	c, _ := NewRS(4, 2)
	rng := rand.New(rand.NewSource(1))
	data := makeShards(rng, 4, 64)
	parity := makeShards(rng, 2, 64)
	parity[1] = parity[1][:32]
	if err := c.Encode(data, parity); err == nil {
		t.Fatal("Encode accepted mismatched shard sizes")
	}
	if err := c.Encode(data[:3], parity); err == nil {
		t.Fatal("Encode accepted wrong shard count")
	}
}

func TestMDSSuccessProb(t *testing.T) {
	// p=0 → always recoverable; p=1 → never (with k>0 data at risk)
	if got := MDSSuccessProb(32, 8, 0); got != 1 {
		t.Fatalf("P(k=32,m=8,p=0) = %g", got)
	}
	if got := MDSSuccessProb(32, 8, 1); got > 1e-12 {
		t.Fatalf("P(k=32,m=8,p=1) = %g", got)
	}
	// monotonically decreasing in p
	prev := 1.0
	for _, p := range []float64{1e-6, 1e-4, 1e-3, 1e-2, 0.1, 0.3} {
		got := MDSSuccessProb(32, 8, p)
		if got > prev+1e-12 {
			t.Fatalf("MDS success prob not monotone at p=%g", p)
		}
		prev = got
	}
	// cross-check against direct Monte Carlo at p=0.05
	rng := rand.New(rand.NewSource(11))
	const trials = 200000
	ok := 0
	for i := 0; i < trials; i++ {
		losses := 0
		for j := 0; j < 40; j++ {
			if rng.Float64() < 0.05 {
				losses++
			}
		}
		if losses <= 8 {
			ok++
		}
	}
	mc := float64(ok) / trials
	if got := MDSSuccessProb(32, 8, 0.05); math.Abs(got-mc) > 0.01 {
		t.Fatalf("MDSSuccessProb = %g, Monte-Carlo = %g", got, mc)
	}
}

func TestXORSuccessProb(t *testing.T) {
	if got := XORSuccessProb(32, 8, 0); got != 1 {
		t.Fatalf("P(p=0) = %g", got)
	}
	// Monte-Carlo cross-check at p=0.02, k=32 m=8 (n=5 per group)
	rng := rand.New(rand.NewSource(13))
	const trials = 200000
	ok := 0
	for i := 0; i < trials; i++ {
		good := true
		for g := 0; g < 8 && good; g++ {
			losses := 0
			for b := 0; b < 5; b++ { // 4 data + 1 parity per group
				if rng.Float64() < 0.02 {
					losses++
				}
			}
			if losses > 1 {
				good = false
			}
		}
		if good {
			ok++
		}
	}
	mc := float64(ok) / trials
	if got := XORSuccessProb(32, 8, 0.02); math.Abs(got-mc) > 0.01 {
		t.Fatalf("XORSuccessProb = %g, Monte-Carlo = %g", got, mc)
	}
	// MDS must dominate XOR at equal (k, m): strictly stronger code.
	for _, p := range []float64{1e-4, 1e-3, 1e-2, 0.05} {
		if mds, xor := MDSSuccessProb(32, 8, p), XORSuccessProb(32, 8, p); mds < xor-1e-12 {
			t.Fatalf("MDS (%g) weaker than XOR (%g) at p=%g", mds, xor, p)
		}
	}
}

// Fig 11's crossover: for a 128 MiB buffer (L = 64 submessages of
// 32 × 64 KiB chunks), XOR's SR fallback becomes tail-relevant
// (fallback probability above the 1e-3 that moves p99.9) around chunk
// drop rate 1e-3, while MDS stays robust beyond 1e-2 and only becomes
// ineffective at very high drop rates (§5.2.1–5.2.2).
func TestFig11FallbackOnsetShape(t *testing.T) {
	const L = 64
	fallback := func(p float64, f func(int, int, float64) float64) float64 {
		return 1 - math.Pow(f(32, 8, p), L)
	}
	xorOnset := fallback(1e-3, XORSuccessProb)
	mdsOnset := fallback(1e-3, MDSSuccessProb)
	if xorOnset < 1e-3 {
		t.Fatalf("XOR fallback prob at p=1e-3 = %g, want tail-relevant (>1e-3)", xorOnset)
	}
	if mdsOnset > xorOnset/10 {
		t.Fatalf("MDS fallback %g not ≪ XOR fallback %g at p=1e-3", mdsOnset, xorOnset)
	}
	if v := fallback(1e-2, MDSSuccessProb); v > 1e-3 {
		t.Fatalf("MDS fallback prob at p=1e-2 = %g, want robust (<1e-3)", v)
	}
	if v := fallback(0.15, MDSSuccessProb); v < 0.5 {
		t.Fatalf("MDS fallback prob at p=0.15 = %g, want ineffective (>0.5)", v)
	}
}

// withParallelism runs fn with the dispatch decision forced to n
// workers, restoring the default afterwards. It lets single-core CI
// exercise (and race-test) the sharded path.
func withParallelism(n int, fn func()) {
	defer ForceParallelism(n)()
	fn()
}

// refDot returns rows·in computed one byte at a time through each
// coefficient's product table: the pure-Go reference for the fused
// dot product behind Encode and Reconstruct.
func refDot(rows, in [][]byte) [][]byte {
	out := make([][]byte, len(rows))
	for r, row := range rows {
		o := make([]byte, len(in[0]))
		for j, c := range row {
			var tbl [256]byte
			for x := range tbl {
				tbl[x] = gf256.Mul(c, byte(x))
			}
			for b, x := range in[j] {
				o[b] ^= tbl[x]
			}
		}
		out[r] = o
	}
	return out
}

// refEncode is the reference encode of either code: the parity rows
// of its encoding matrix (for XOR, ones on each modulo group) applied
// with refDot.
func refEncode(c Code, data [][]byte) [][]byte {
	k, m := c.K(), c.M()
	rows := make([][]byte, m)
	for i := range rows {
		rows[i] = make([]byte, k)
		switch c := c.(type) {
		case *RSCode:
			copy(rows[i], c.enc.Row(k+i))
		case *XORCode:
			for j := i; j < k; j += m {
				rows[i][j] = 1
			}
		}
	}
	return refDot(rows, data)
}

// refDecode is the reference decode of either code: it returns the k
// data shards, rebuilding the lost ones from the present shards with
// refDot. RS inverts the encoding rows of the first k present shards;
// XOR rebuilds a lost block from its group's parity and surviving
// blocks.
func refDecode(c Code, shards [][]byte, present []bool) [][]byte {
	k, m := c.K(), c.M()
	var missing []int
	for j := 0; j < k; j++ {
		if !present[j] {
			missing = append(missing, j)
		}
	}
	rows := make([][]byte, len(missing))
	in := shards
	switch c := c.(type) {
	case *RSCode:
		sub := gf256.NewMatrix(k, k)
		in = nil
		for r := 0; len(in) < k; r++ {
			if present[r] {
				copy(sub.Row(len(in)), c.enc.Row(r))
				in = append(in, shards[r])
			}
		}
		dec, err := sub.Invert()
		if err != nil {
			panic(err)
		}
		for i, j := range missing {
			rows[i] = dec.Row(j)
		}
	case *XORCode:
		for i, j := range missing {
			rows[i] = make([]byte, k+m)
			rows[i][k+j%m] = 1
			for o := j % m; o < k; o += m {
				if o != j {
					rows[i][o] = 1
				}
			}
		}
	}
	out := append([][]byte(nil), shards[:k]...)
	for i, rebuilt := range refDot(rows, in) {
		out[missing[i]] = rebuilt
	}
	return out
}

// TestParallelEncodeMatchesSerial locks in the acceptance criterion
// that the sharded encoder produces byte-identical parity to the
// serial path, for both codes, at sizes above the parallel threshold
// (including a non-segment-aligned one). Both go through the fused
// kernel, so both are also checked against the pure-Go reference.
func TestParallelEncodeMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, c := range []Code{mustRS(32, 8), mustXOR(32, 8), mustRS(8, 4), mustXOR(8, 2), mustRS(5, 3)} {
		for _, size := range []int{64 << 10, 64<<10 + 24, 192 << 10} {
			data := makeShards(rng, c.K(), size)
			serial := makeShards(rng, c.M(), size)
			parallel := makeShards(rng, c.M(), size)
			withParallelism(1, func() {
				if err := c.Encode(data, serial); err != nil {
					t.Fatalf("%s serial encode: %v", c.Name(), err)
				}
			})
			withParallelism(8, func() {
				if err := c.Encode(data, parallel); err != nil {
					t.Fatalf("%s parallel encode: %v", c.Name(), err)
				}
			})
			want := refEncode(c, data)
			for i := range serial {
				if !bytes.Equal(serial[i], parallel[i]) {
					t.Fatalf("%s size=%d: parity row %d differs between serial and parallel encode",
						c.Name(), size, i)
				}
				if !bytes.Equal(serial[i], want[i]) {
					t.Fatalf("%s(%d,%d) size=%d: parity row %d differs from the reference encode",
						c.Name(), c.K(), c.M(), size, i)
				}
			}
		}
	}
}

// TestParallelReconstructMatchesSerial does the same for the decoder:
// repair the same loss pattern on serial and sharded paths and compare
// every recovered byte with each other, with the pure-Go reference
// decode and with the original data.
func TestParallelReconstructMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const size = 96<<10 + 8
	for _, tc := range []struct {
		code Code
		lose []int
	}{
		{mustRS(32, 8), []int{0, 5, 17, 31, 33}},
		{mustRS(32, 8), []int{1, 2, 3, 4, 5, 6, 7, 8}},
		{mustRS(32, 8), []int{9, 10, 11, 39}},
		{mustXOR(32, 8), []int{3, 12, 21, 38}},
	} {
		c := tc.code
		k, m := c.K(), c.M()
		data := makeShards(rng, k, size)
		parity := refEncode(c, data)
		run := func(workers int) ([][]byte, [][]byte) {
			shards := make([][]byte, k+m)
			present := make([]bool, k+m)
			for i := range shards {
				var src []byte
				if i < k {
					src = data[i]
				} else {
					src = parity[i-k]
				}
				shards[i] = append([]byte(nil), src...)
				present[i] = true
			}
			for _, l := range tc.lose {
				present[l] = false
				for b := range shards[l] {
					shards[l][b] = 0xEE
				}
			}
			ref := refDecode(c, shards, present)
			withParallelism(workers, func() {
				if err := c.Reconstruct(shards, present); err != nil {
					t.Fatalf("%s workers=%d: %v", c.Name(), workers, err)
				}
			})
			return shards, ref
		}
		serial, ref := run(1)
		parallel, _ := run(8)
		for i := range serial {
			if !bytes.Equal(serial[i], parallel[i]) {
				t.Fatalf("%s: shard %d differs between serial and parallel reconstruct", c.Name(), i)
			}
		}
		for i := 0; i < k; i++ {
			if !bytes.Equal(serial[i], ref[i]) {
				t.Fatalf("%s lose=%v: shard %d differs from the reference decode", c.Name(), tc.lose, i)
			}
			if !bytes.Equal(serial[i], data[i]) {
				t.Fatalf("%s: shard %d not recovered correctly", c.Name(), i)
			}
		}
	}
}

// TestConcurrentEncodes drives many Encode calls through the shared
// pool at once — the WriteEC pattern when several endpoints encode
// simultaneously — under the race detector.
func TestConcurrentEncodes(t *testing.T) {
	c := mustRS(16, 4)
	const size = 32 << 10
	const goroutines = 8
	datas := make([][][]byte, goroutines)
	wants := make([][][]byte, goroutines)
	for g := range datas {
		rng := rand.New(rand.NewSource(int64(g)))
		datas[g] = makeShards(rng, c.K(), size)
		wants[g] = makeShards(rng, c.M(), size)
	}
	withParallelism(1, func() {
		for g := range datas {
			if err := c.Encode(datas[g], wants[g]); err != nil {
				t.Fatal(err)
			}
		}
	})
	withParallelism(4, func() {
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				parity := makeShards(rand.New(rand.NewSource(int64(g)+100)), c.M(), size)
				for iter := 0; iter < 4; iter++ {
					if err := c.Encode(datas[g], parity); err != nil {
						t.Error(err)
						return
					}
					for i := range parity {
						if !bytes.Equal(parity[i], wants[g][i]) {
							t.Errorf("concurrent encode diverged (goroutine %d)", g)
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
	})
}

func BenchmarkRSEncode32x8_64KiB(b *testing.B) {
	benchEncode(b, mustRS(32, 8), 64<<10)
}

func BenchmarkXOREncode32x8_64KiB(b *testing.B) {
	benchEncode(b, mustXOR(32, 8), 64<<10)
}

func mustRS(k, m int) Code  { c, _ := NewRS(k, m); return c }
func mustXOR(k, m int) Code { c, _ := NewXOR(k, m); return c }

func benchEncode(b *testing.B, c Code, chunk int) {
	rng := rand.New(rand.NewSource(1))
	data := makeShards(rng, c.K(), chunk)
	parity := makeShards(rng, c.M(), chunk)
	b.SetBytes(int64(c.K() * chunk))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Encode(data, parity); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRSEncodeSerial / BenchmarkRSEncodeParallel (and the XOR
// pair) expose the serial-vs-sharded encode throughput the acceptance
// criteria track; on a multi-core machine the parallel variant should
// be ≥2x. The serial variants force the seed single-goroutine path.
func benchEncodeWorkers(b *testing.B, c Code, chunk, workers int) {
	withParallelism(workers, func() {
		benchEncode(b, c, chunk)
	})
}

func BenchmarkRSEncodeSerial32x8_256KiB(b *testing.B) {
	benchEncodeWorkers(b, mustRS(32, 8), 256<<10, 1)
}

func BenchmarkRSEncodeParallel32x8_256KiB(b *testing.B) {
	benchEncodeWorkers(b, mustRS(32, 8), 256<<10, 0)
}

func BenchmarkXOREncodeSerial32x8_256KiB(b *testing.B) {
	benchEncodeWorkers(b, mustXOR(32, 8), 256<<10, 1)
}

func BenchmarkXOREncodeParallel32x8_256KiB(b *testing.B) {
	benchEncodeWorkers(b, mustXOR(32, 8), 256<<10, 0)
}

func BenchmarkRSReconstruct32x8_64KiB(b *testing.B) {
	benchReconstruct(b, mustRS(32, 8))
}

func BenchmarkXORReconstruct32x8_64KiB(b *testing.B) {
	benchReconstruct(b, mustXOR(32, 8))
}

func benchReconstruct(b *testing.B, c Code) {
	rng := rand.New(rand.NewSource(1))
	const chunk = 64 << 10
	data := makeShards(rng, c.K(), chunk)
	parity := makeShards(rng, c.M(), chunk)
	if err := c.Encode(data, parity); err != nil {
		b.Fatal(err)
	}
	shards := append(append([][]byte{}, data...), parity...)
	b.SetBytes(int64(c.K() * chunk))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		present := make([]bool, c.K()+c.M())
		for j := range present {
			present[j] = true
		}
		present[3] = false // one loss per group at most: both codes recover
		if err := c.Reconstruct(shards, present); err != nil {
			b.Fatal(err)
		}
	}
}
