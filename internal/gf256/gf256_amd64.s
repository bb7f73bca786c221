#include "textflag.h"

// AVX2 GF(2^8) kernels. A product c·x is split by nibble:
// c·x = c·(x&0x0F) ⊕ c·(x&0xF0), and each half is a 16-entry table
// lookup that VPSHUFB performs for 32 bytes at once. A table is 32
// bytes: the 16 low-nibble products, then the 16 high-nibble products,
// broadcast into both 128-bit lanes. Every kernel covers the largest
// multiple of 32 bytes it is given; callers finish the tail in Go.

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET

// NIBBLE_MASK fills reg with 0x0F in every byte, using tmp.
#define NIBBLE_MASK(tmp, xreg, reg) \
	MOVQ $0x0f0f0f0f0f0f0f0f, tmp; \
	VMOVQ tmp, xreg;               \
	VPBROADCASTQ xreg, reg

// MUL32 sets dst = c·src for one 32-byte register, given the low and
// high tables, the nibble mask and a scratch register.
#define MUL32(lo, hi, mask, src, tmp, dst) \
	VPSRLQ  $4, src, tmp;   \
	VPAND   mask, src, dst; \
	VPAND   mask, tmp, tmp; \
	VPSHUFB dst, lo, dst;   \
	VPSHUFB tmp, hi, tmp;   \
	VPXOR   tmp, dst, dst

// func mulAVX2(tbl *[32]byte, dst, src []byte)
TEXT ·mulAVX2(SB), NOSPLIT, $0-56
	MOVQ tbl+0(FP), AX
	MOVQ dst_base+8(FP), DI
	MOVQ src_base+32(FP), SI
	MOVQ src_len+40(FP), CX
	SHRQ $5, CX
	JZ   mul_done
	VBROADCASTI128 (AX), Y0
	VBROADCASTI128 16(AX), Y1
	NIBBLE_MASK(DX, X2, Y2)

mul_loop:
	VMOVDQU (SI), Y3
	MUL32(Y0, Y1, Y2, Y3, Y4, Y5)
	VMOVDQU Y5, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     mul_loop
	VZEROUPPER

mul_done:
	RET

// func mulAddAVX2(tbl *[32]byte, dst, src []byte)
TEXT ·mulAddAVX2(SB), NOSPLIT, $0-56
	MOVQ tbl+0(FP), AX
	MOVQ dst_base+8(FP), DI
	MOVQ src_base+32(FP), SI
	MOVQ src_len+40(FP), CX
	SHRQ $5, CX
	JZ   muladd_done
	VBROADCASTI128 (AX), Y0
	VBROADCASTI128 16(AX), Y1
	NIBBLE_MASK(DX, X2, Y2)

muladd_loop:
	VMOVDQU (SI), Y3
	MUL32(Y0, Y1, Y2, Y3, Y4, Y5)
	VPXOR   (DI), Y5, Y5
	VMOVDQU Y5, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     muladd_loop
	VZEROUPPER

muladd_done:
	RET

// func xorAVX2(dst, src []byte)
TEXT ·xorAVX2(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	SHRQ $5, CX
	JZ   xor_done

xor_loop128:
	CMPQ    CX, $4
	JB      xor_loop32
	VMOVDQU (SI), Y0
	VMOVDQU 32(SI), Y1
	VMOVDQU 64(SI), Y2
	VMOVDQU 96(SI), Y3
	VPXOR   (DI), Y0, Y0
	VPXOR   32(DI), Y1, Y1
	VPXOR   64(DI), Y2, Y2
	VPXOR   96(DI), Y3, Y3
	VMOVDQU Y0, (DI)
	VMOVDQU Y1, 32(DI)
	VMOVDQU Y2, 64(DI)
	VMOVDQU Y3, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DI
	SUBQ    $4, CX
	JMP     xor_loop128

xor_loop32:
	TESTQ   CX, CX
	JZ      xor_end
	VMOVDQU (SI), Y0
	VPXOR   (DI), Y0, Y0
	VMOVDQU Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JMP     xor_loop32

xor_end:
	VZEROUPPER

xor_done:
	RET

// DOT_ROW folds c·x for one output row into acc, where the row's
// table sits at off(R12) and Y4/Y5 hold x's low/high nibbles.
#define DOT_ROW(off, acc) \
	VBROADCASTI128 off(R12), Y6;    \
	VBROADCASTI128 off+16(R12), Y7; \
	VPSHUFB        Y4, Y6, Y6;      \
	VPSHUFB        Y5, Y7, Y7;      \
	VPXOR          Y6, acc, acc;    \
	VPXOR          Y7, acc, acc

// func dotAVX2(tbl []byte, stride int, in, out [][]byte, off, n int)
//
// For each of the len(out) rows (1 to 4), dotAVX2 sets bytes
// [off, off+n) of out[r] to the GF(2^8) dot product of that row's
// coefficients with the len(in) input slices. The table of row r for
// input j is at tbl[j*stride+32*r]. n must be a positive multiple of
// 32. Every 32-byte column is read once per input and written once per
// row: the row accumulators stay in Y0..Y3 across the inputs.
TEXT ·dotAVX2(SB), NOSPLIT, $0-96
	MOVQ tbl_base+0(FP), R8
	MOVQ stride+24(FP), R9
	MOVQ in_base+32(FP), SI
	MOVQ in_len+40(FP), CX
	MOVQ out_base+56(FP), DI
	MOVQ out_len+64(FP), AX
	MOVQ off+80(FP), DX
	MOVQ n+88(FP), BX
	ADDQ DX, BX
	NIBBLE_MASK(R10, X15, Y15)

dot_column:
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	MOVQ  SI, R11
	MOVQ  R8, R12
	MOVQ  CX, R13

dot_input:
	MOVQ    (R11), R10
	VMOVDQU (R10)(DX*1), Y4
	VPSRLQ  $4, Y4, Y5
	VPAND   Y15, Y4, Y4
	VPAND   Y15, Y5, Y5
	DOT_ROW(0, Y0)
	CMPQ    AX, $1
	JEQ     dot_next
	DOT_ROW(32, Y1)
	CMPQ    AX, $2
	JEQ     dot_next
	DOT_ROW(64, Y2)
	CMPQ    AX, $3
	JEQ     dot_next
	DOT_ROW(96, Y3)

dot_next:
	ADDQ $24, R11
	ADDQ R9, R12
	DECQ R13
	JNZ  dot_input

	MOVQ    (DI), R10
	VMOVDQU Y0, (R10)(DX*1)
	CMPQ    AX, $1
	JEQ     dot_stored
	MOVQ    24(DI), R10
	VMOVDQU Y1, (R10)(DX*1)
	CMPQ    AX, $2
	JEQ     dot_stored
	MOVQ    48(DI), R10
	VMOVDQU Y2, (R10)(DX*1)
	CMPQ    AX, $3
	JEQ     dot_stored
	MOVQ    72(DI), R10
	VMOVDQU Y3, (R10)(DX*1)

dot_stored:
	ADDQ $32, DX
	CMPQ DX, BX
	JB   dot_column
	VZEROUPPER
	RET
