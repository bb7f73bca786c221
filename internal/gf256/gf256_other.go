//go:build !amd64

package gf256

// Without amd64 assembly every kernel runs its pure-Go word form.
const hasAVX2 = false

func mulSliceSIMD(c byte, dst, src []byte) int    { return 0 }
func mulAddSliceSIMD(c byte, dst, src []byte) int { return 0 }
func xorSliceSIMD(dst, src []byte) int            { return 0 }

func (t *DotTables) dotSIMD(out, in [][]byte, lo, hi int) int { return lo }
