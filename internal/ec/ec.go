// Package ec implements the two erasure-coding schemes the paper layers
// on top of the SDR bitmap (§4.1.2, §5.1.1, Appendix B):
//
//   - XORCode: the simple RAID-style code where the i-th of m parity
//     blocks is the XOR of all data blocks whose index j satisfies
//     j mod m == i. It tolerates at most one lost block per modulo
//     group but encodes at near-memory-bandwidth speed.
//   - RSCode: a systematic Reed–Solomon (Maximum Distance Separable)
//     code over GF(2^8) that recovers from any m lost blocks among the
//     k+m total, the stand-in for Intel ISA-L used in Fig 11.
//
// Both operate on equal-length byte shards, matching SDR chunks.
package ec

import (
	"errors"
	"fmt"
	"math"

	"sdrrdma/internal/gf256"
)

// Code is a (k, m) erasure code over equal-length shards.
type Code interface {
	// K returns the number of data shards per submessage.
	K() int
	// M returns the number of parity shards per submessage.
	M() int
	// Encode computes the m parity shards from the k data shards.
	// All shards must have identical length; parity shards are
	// overwritten.
	Encode(data, parity [][]byte) error
	// CanRecover reports whether the data can be reconstructed given
	// the presence mask over the k+m shards (data first, then parity).
	CanRecover(present []bool) bool
	// Reconstruct recovers the missing *data* shards in place, given
	// shards (k data followed by m parity; missing entries must still
	// be allocated buffers) and the presence mask. Present shards are
	// left untouched.
	Reconstruct(shards [][]byte, present []bool) error
	// Name identifies the scheme ("xor" or "mds").
	Name() string
}

// ErrUnrecoverable is returned by Reconstruct when too many shards were
// lost for the code to recover — the SDR reliability layer reacts by
// falling back to Selective Repeat for the submessage (§4.1.2).
var ErrUnrecoverable = errors.New("ec: too many shards lost to reconstruct")

func checkShardGeometry(data, parity [][]byte, k, m int) (int, error) {
	if len(data) != k || len(parity) != m {
		return 0, fmt.Errorf("ec: got %d data + %d parity shards, want %d + %d",
			len(data), len(parity), k, m)
	}
	size := len(data[0])
	for _, shards := range [2][][]byte{data, parity} {
		for _, s := range shards {
			if len(s) != size {
				return 0, fmt.Errorf("ec: shard size mismatch: %d vs %d", len(s), size)
			}
		}
	}
	if size == 0 {
		return 0, errors.New("ec: empty shards")
	}
	return size, nil
}

// --- XOR code -----------------------------------------------------------

// XORCode is the modulo-group XOR code from §5.1.1.
type XORCode struct {
	k, m int
}

// NewXOR builds an XOR(k, m) code. m must divide k so that every modulo
// group has k/m data blocks, matching the paper's Appendix B analysis
// (n = k/m + 1 blocks per group including parity).
func NewXOR(k, m int) (*XORCode, error) {
	if k <= 0 || m <= 0 || k%m != 0 {
		return nil, fmt.Errorf("ec: XOR requires m | k, got k=%d m=%d", k, m)
	}
	return &XORCode{k: k, m: m}, nil
}

func (c *XORCode) K() int       { return c.k }
func (c *XORCode) M() int       { return c.m }
func (c *XORCode) Name() string { return "xor" }

// Encode computes parity[i] = XOR of data[j] for j mod m == i. Above
// the parallel threshold the byte range is sharded across the package
// worker pool, each unit computing every parity row; the output is
// identical to the serial path.
func (c *XORCode) Encode(data, parity [][]byte) error {
	size, err := checkShardGeometry(data, parity, c.k, c.m)
	if err != nil {
		return err
	}
	forEachRange(size, func(lo, hi int) {
		for i := 0; i < c.m; i++ {
			c.encodeRow(data, parity, i, lo, hi)
		}
	})
	return nil
}

// encodeRow computes bytes [lo,hi) of parity row i.
func (c *XORCode) encodeRow(data, parity [][]byte, i, lo, hi int) {
	p := parity[i][lo:hi]
	copy(p, data[i][lo:hi])
	for j := i + c.m; j < c.k; j += c.m {
		gf256.XORSlice(p, data[j][lo:hi])
	}
}

// groupLoss counts missing blocks per modulo group; group g holds data
// blocks {j : j mod m == g} and parity block g.
func (c *XORCode) groupLoss(present []bool) []int {
	loss := make([]int, c.m)
	for j := 0; j < c.k; j++ {
		if !present[j] {
			loss[j%c.m]++
		}
	}
	for g := 0; g < c.m; g++ {
		if !present[c.k+g] {
			loss[g]++
		}
	}
	return loss
}

// CanRecover reports true iff every modulo group lost at most one block.
func (c *XORCode) CanRecover(present []bool) bool {
	if len(present) != c.k+c.m {
		return false
	}
	for _, l := range c.groupLoss(present) {
		if l > 1 {
			return false
		}
	}
	return true
}

// Reconstruct repairs at most one missing data block per modulo group.
// Byte ranges decode independently, so large shards are repaired
// across the worker pool, each unit covering every damaged group.
func (c *XORCode) Reconstruct(shards [][]byte, present []bool) error {
	if len(shards) != c.k+c.m || len(present) != c.k+c.m {
		return fmt.Errorf("ec: XOR Reconstruct wants %d shards", c.k+c.m)
	}
	if !c.CanRecover(present) {
		return ErrUnrecoverable
	}
	var repairs []int // data block to repair, one per damaged group
	for g := 0; g < c.m; g++ {
		for j := g; j < c.k; j += c.m {
			if !present[j] {
				repairs = append(repairs, j)
				break
			}
		}
	}
	if len(repairs) == 0 {
		return nil // no data loss (maybe only parity lost)
	}
	size := len(shards[repairs[0]])
	forEachRange(size, func(lo, hi int) {
		for _, missing := range repairs {
			c.repairBlock(shards, missing, lo, hi)
		}
	})
	for _, missing := range repairs {
		present[missing] = true
	}
	return nil
}

// repairBlock rebuilds bytes [lo,hi) of the missing data block from
// its group's parity and surviving data blocks.
func (c *XORCode) repairBlock(shards [][]byte, missing, lo, hi int) {
	g := missing % c.m
	out := shards[missing][lo:hi]
	copy(out, shards[c.k+g][lo:hi]) // start from parity
	for j := g; j < c.k; j += c.m {
		if j != missing {
			gf256.XORSlice(out, shards[j][lo:hi])
		}
	}
}

// --- Reed–Solomon (MDS) code ---------------------------------------------

// RSCode is a systematic Reed–Solomon code: any k of the k+m shards
// reconstruct the data.
type RSCode struct {
	k, m int
	// enc is the (k+m)×k systematic encoding matrix: identity on top,
	// parity rows below.
	enc *gf256.Matrix
	// parity holds enc's m parity rows prepared for gf256's fused dot
	// product; nil when m == 0.
	parity *gf256.DotTables
}

// NewRS builds an RS(k, m) code. k+m must not exceed 256 (field size).
func NewRS(k, m int) (*RSCode, error) {
	if k <= 0 || m < 0 || k+m > 256 {
		return nil, fmt.Errorf("ec: RS requires 0<k, 0<=m, k+m<=256; got k=%d m=%d", k, m)
	}
	v := gf256.Vandermonde(k+m, k)
	topInv, err := v.SubMatrix(0, k, 0, k).Invert()
	if err != nil {
		return nil, fmt.Errorf("ec: building systematic matrix: %w", err)
	}
	c := &RSCode{k: k, m: m, enc: v.Mul(topInv)}
	if m > 0 {
		c.parity = gf256.NewDotTables(c.enc.SubMatrix(k, k+m, 0, k))
	}
	return c, nil
}

func (c *RSCode) K() int       { return c.k }
func (c *RSCode) M() int       { return c.m }
func (c *RSCode) Name() string { return "mds" }

// Encode computes the m parity shards as one fused dot product of the
// parity rows with the data shards. Above the parallel threshold the
// byte range is sharded across the package worker pool, each unit
// computing every parity row; the output is identical to the serial
// path.
func (c *RSCode) Encode(data, parity [][]byte) error {
	size, err := checkShardGeometry(data, parity, c.k, c.m)
	if err != nil {
		return err
	}
	if c.m == 0 {
		return nil
	}
	forEachRange(size, func(lo, hi int) { c.parity.Dot(parity, data, lo, hi) })
	return nil
}

// CanRecover reports true iff at least k of the k+m shards are present.
func (c *RSCode) CanRecover(present []bool) bool {
	if len(present) != c.k+c.m {
		return false
	}
	n := 0
	for _, p := range present {
		if p {
			n++
		}
	}
	return n >= c.k
}

// Reconstruct recovers missing data shards from any k present shards:
// the missing shards are one fused dot product of the matching rows of
// the inverted decode matrix with the k surviving shards.
func (c *RSCode) Reconstruct(shards [][]byte, present []bool) error {
	if len(shards) != c.k+c.m || len(present) != c.k+c.m {
		return fmt.Errorf("ec: RS Reconstruct wants %d shards", c.k+c.m)
	}
	if !c.CanRecover(present) {
		return ErrUnrecoverable
	}
	var missing []int
	for j := 0; j < c.k; j++ {
		if !present[j] {
			missing = append(missing, j)
		}
	}
	if len(missing) == 0 {
		return nil
	}
	size := len(shards[0])
	for _, s := range shards {
		if len(s) != size {
			return fmt.Errorf("ec: shard size mismatch: %d vs %d", len(s), size)
		}
	}
	// Collect k present shards and the matching rows of the encoding
	// matrix; invert to obtain the decode matrix.
	sub := gf256.NewMatrix(c.k, c.k)
	avail := make([][]byte, 0, c.k)
	for r := 0; r < c.k+c.m && len(avail) < c.k; r++ {
		if present[r] {
			copy(sub.Row(len(avail)), c.enc.Row(r))
			avail = append(avail, shards[r])
		}
	}
	dec, err := sub.Invert()
	if err != nil {
		// Cannot happen for an MDS matrix; report rather than panic.
		return fmt.Errorf("ec: decode matrix singular: %w", err)
	}
	rows := gf256.NewMatrix(len(missing), c.k)
	out := make([][]byte, len(missing))
	for i, j := range missing {
		copy(rows.Row(i), dec.Row(j))
		out[i] = shards[j]
	}
	tables := gf256.NewDotTables(rows)
	forEachRange(size, func(lo, hi int) { tables.Dot(out, avail, lo, hi) })
	for _, j := range missing {
		present[j] = true
	}
	return nil
}

// --- Appendix B success probabilities ------------------------------------

// MDSSuccessProb returns the probability that a data submessage encoded
// with MDS(k, m) is recoverable when each of the k+m chunks drops
// independently with probability p (Appendix B.0.1):
//
//	P = Σ_{i=0}^{m} C(k+m, i) p^i (1-p)^(k+m-i)
func MDSSuccessProb(k, m int, p float64) float64 {
	total := 0.0
	n := k + m
	for i := 0; i <= m; i++ {
		total += binomPMF(n, i, p)
	}
	if total > 1 {
		total = 1
	}
	return total
}

// XORSuccessProb returns the probability that a data submessage encoded
// with XOR(k, m) is recoverable under i.i.d. chunk drop probability p
// (Appendix B.0.2). With n = k/m + 1 blocks per modulo group:
//
//	P = [(1-p)^n + n·p·(1-p)^(n-1)]^m
func XORSuccessProb(k, m int, p float64) float64 {
	n := float64(k/m) + 1
	group := math.Pow(1-p, n) + n*p*math.Pow(1-p, n-1)
	return math.Pow(group, float64(m))
}

// binomPMF returns C(n, i) p^i (1-p)^(n-i), computed in log space for
// numerical stability at the paper's extreme drop rates (1e-8).
func binomPMF(n, i int, p float64) float64 {
	if p == 0 {
		if i == 0 {
			return 1
		}
		return 0
	}
	if p == 1 {
		if i == n {
			return 1
		}
		return 0
	}
	logC := lgamma(n+1) - lgamma(i+1) - lgamma(n-i+1)
	return math.Exp(logC + float64(i)*math.Log(p) + float64(n-i)*math.Log(1-p))
}

func lgamma(x int) float64 {
	v, _ := math.Lgamma(float64(x))
	return v
}
