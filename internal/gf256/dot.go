package gf256

// DotTables holds a rows×cols coefficient matrix prepared for Dot, the
// fused matrix–vector product over byte slices that Reed–Solomon
// encode and decode both reduce to. Build it once per matrix: it
// copies the coefficients and, where the SIMD kernels run, lays out
// their split-nibble tables.
type DotTables struct {
	rows, cols int
	coef       []byte // rows×cols, row-major
	// nib holds the 32-byte split-nibble table of coef[r][j] at
	// (j*rows+r)*32, so a kernel pass reads the tables of consecutive
	// rows for one input side by side. nil without SIMD kernels.
	nib []byte
}

// NewDotTables prepares m for Dot.
func NewDotTables(m *Matrix) *DotTables {
	t := &DotTables{rows: m.Rows, cols: m.Cols, coef: append([]byte(nil), m.Data...)}
	if hasAVX2 {
		t.nib = make([]byte, 32*m.Rows*m.Cols)
		for r := 0; r < m.Rows; r++ {
			for j := 0; j < m.Cols; j++ {
				copy(t.nib[32*(j*m.Rows+r):], nibbleTables[m.At(r, j)][:])
			}
		}
	}
	return t
}

// Dot sets bytes [lo,hi) of each out[r] to Σ_j coef[r][j]·in[j][lo:hi].
// out and in must have one slice per matrix row and column, each at
// least hi bytes long, and out must not overlap in. With AVX2 a kernel
// pass computes up to four rows at once, holding their sums in
// registers while it reads each input once, and writes each output
// once; the pure-Go word kernels do the rest.
func (t *DotTables) Dot(out, in [][]byte, lo, hi int) {
	if len(out) != t.rows || len(in) != t.cols {
		panic("gf256: Dot shape mismatch")
	}
	if lo < 0 || lo > hi {
		panic("gf256: Dot range out of order")
	}
	for _, s := range out {
		if len(s) < hi {
			panic("gf256: Dot output too short")
		}
	}
	for _, s := range in {
		if len(s) < hi {
			panic("gf256: Dot input too short")
		}
	}
	lo = t.dotSIMD(out, in, lo, hi)
	if lo < hi {
		t.dotGo(out, in, lo, hi)
	}
}

// dotGo is Dot one row at a time with the pure-Go word kernels.
func (t *DotTables) dotGo(out, in [][]byte, lo, hi int) {
	for r, o := range out {
		row := t.coef[r*t.cols : (r+1)*t.cols]
		o = o[lo:hi]
		mulSliceGo(row[0], o, in[0][lo:hi])
		for j := 1; j < t.cols; j++ {
			mulAddSliceGo(row[j], o, in[j][lo:hi])
		}
	}
}
