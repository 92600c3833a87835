#include "textflag.h"

// The kNN kernels. Four targets sit in each YMM register; the operations
// and their order are those of the Go bodies in kernels.go, with no fused
// multiply-add, so every lane makes the decision, and gets the distance,
// of the per-pair loop. Only VEX-encoded instructions are used, and
// every kernel ends with VZEROUPPER.
//
// A bucket's target columns are stride float64s apart: x, y, z, ID bits,
// bound. A block of four loads whole registers, so the last block of a
// column reads up to three entries past it: the next column, the next
// bucket's block or the arena's padding. Their lanes are masked out of
// every result.

// The survivor bits of a last block of 0-3 targets: tails<>+r is r ones.
DATA tails<>+0(SB)/1, $0
DATA tails<>+1(SB)/1, $1
DATA tails<>+2(SB)/1, $3
DATA tails<>+3(SB)/1, $7
GLOBL tails<>(SB), RODATA|NOPTR, $4

// func filterAVX2(c *float64, stride, n int, sx, sy, sz float64, sid int64, self uint64, d2 *[chunk]float64) uint64
//
// Per target, as filterGo: dx = sx - x, d2 = ((dx·dx + dy·dy) + dz·dz),
// stored to d2[i] for every lane of a block; bit i of the result is
// d2 <= bound (ordered, so a NaN fails) and not (ID == sid and self).
// Bits from n up are cleared.
TEXT ·filterAVX2(SB), NOSPLIT, $0-80
	MOVQ c+0(FP), SI
	MOVQ stride+8(FP), R8
	SHLQ $3, R8
	LEAQ (SI)(R8*1), BX          // y
	LEAQ (BX)(R8*1), DI          // z
	LEAQ (DI)(R8*1), R9          // ID bits
	LEAQ (R9)(R8*1), R10         // bound
	MOVQ n+16(FP), DX
	VBROADCASTSD sx+24(FP), Y10
	VBROADCASTSD sy+32(FP), Y11
	VBROADCASTSD sz+40(FP), Y12
	VPBROADCASTQ sid+48(FP), Y13
	VPBROADCASTQ self+56(FP), Y14
	MOVQ d2+64(FP), R12
	XORQ CX, CX                  // first target of the block
	XORQ R11, R11                // survivors

filterblock:
	CMPQ CX, DX
	JGE  filterdone
	VMOVUPD   (SI)(CX*8), Y0
	VSUBPD    Y0, Y10, Y0        // dx = sx - x
	VMOVUPD   (BX)(CX*8), Y1
	VSUBPD    Y1, Y11, Y1
	VMOVUPD   (DI)(CX*8), Y2
	VSUBPD    Y2, Y12, Y2
	VMULPD    Y0, Y0, Y0
	VMULPD    Y1, Y1, Y1
	VADDPD    Y1, Y0, Y0         // dx·dx + dy·dy
	VMULPD    Y2, Y2, Y2
	VADDPD    Y2, Y0, Y0         // d2
	VMOVUPD   Y0, (R12)(CX*8)
	VCMPPD    $0x12, (R10)(CX*8), Y0, Y0 // d2 <= bound, ordered
	VPCMPEQQ  (R9)(CX*8), Y13, Y1        // ID == sid
	VPAND     Y14, Y1, Y1                // ... and self excluded
	VANDNPD   Y0, Y1, Y0
	VMOVMSKPD Y0, AX
	SHLQ      CX, AX
	ORQ       AX, R11
	ADDQ      $4, CX
	JMP       filterblock

filterdone:
	CMPQ DX, $64
	JGE  filterret
	MOVQ DX, CX
	MOVQ $1, AX
	SHLQ CX, AX
	DECQ AX
	ANDQ AX, R11                 // bits 0 to n-1

filterret:
	MOVQ R11, ret+72(FP)
	VZEROUPPER
	RET

// func openAVX2(c *float64, n int, box *vec.Box) bool
//
// Per target, as vec.Box.DistSq: on each axis g = (v < Min) ? Min-v :
// ((v > Max) ? v-Max : 0), the comparisons ordered so a NaN fails both,
// then d2 = ((gx·gx + gy·gy) + gz·gz); the result is whether any of the
// n targets has d2 <= bound. A block whose lanes pass returns at once.
TEXT ·openAVX2(SB), NOSPLIT, $0-25
	MOVQ c+0(FP), SI
	MOVQ n+8(FP), DX
	MOVQ DX, R8
	SHLQ $3, R8
	LEAQ (SI)(R8*1), BX          // y
	LEAQ (BX)(R8*1), DI          // z
	LEAQ (DI)(R8*2), R10         // bound, past the ID bits
	MOVQ box+16(FP), AX
	VBROADCASTSD 0(AX), Y10      // Min.X
	VBROADCASTSD 8(AX), Y11      // Min.Y
	VBROADCASTSD 16(AX), Y12     // Min.Z
	VBROADCASTSD 24(AX), Y13     // Max.X
	VBROADCASTSD 32(AX), Y14     // Max.Y
	VBROADCASTSD 40(AX), Y15     // Max.Z
	LEAQ tails<>(SB), R11
	XORQ CX, CX

openblock:
	CMPQ CX, DX
	JGE  openno
	VMOVUPD   (SI)(CX*8), Y0     // x
	VSUBPD    Y13, Y0, Y1        // x - Max
	VCMPPD    $0x1e, Y13, Y0, Y2 // x > Max
	VANDPD    Y1, Y2, Y1         // x - Max, or 0
	VSUBPD    Y0, Y10, Y3        // Min - x
	VCMPPD    $0x11, Y10, Y0, Y2 // x < Min
	VBLENDVPD Y2, Y3, Y1, Y1     // gx
	VMULPD    Y1, Y1, Y4
	VMOVUPD   (BX)(CX*8), Y0     // y
	VSUBPD    Y14, Y0, Y1
	VCMPPD    $0x1e, Y14, Y0, Y2
	VANDPD    Y1, Y2, Y1
	VSUBPD    Y0, Y11, Y3
	VCMPPD    $0x11, Y11, Y0, Y2
	VBLENDVPD Y2, Y3, Y1, Y1     // gy
	VMULPD    Y1, Y1, Y1
	VADDPD    Y1, Y4, Y4         // gx·gx + gy·gy
	VMOVUPD   (DI)(CX*8), Y0     // z
	VSUBPD    Y15, Y0, Y1
	VCMPPD    $0x1e, Y15, Y0, Y2
	VANDPD    Y1, Y2, Y1
	VSUBPD    Y0, Y12, Y3
	VCMPPD    $0x11, Y12, Y0, Y2
	VBLENDVPD Y2, Y3, Y1, Y1     // gz
	VMULPD    Y1, Y1, Y1
	VADDPD    Y1, Y4, Y4         // d2
	VCMPPD    $0x12, (R10)(CX*8), Y4, Y4 // d2 <= bound, ordered
	VMOVMSKPD Y4, AX
	MOVQ      DX, R9
	SUBQ      CX, R9             // targets left
	CMPQ      R9, $4
	JGE       opentest
	MOVBQZX   (R11)(R9*1), R9
	ANDQ      R9, AX             // lanes past the last target

opentest:
	TESTQ AX, AX
	JNZ   openyes
	ADDQ  $4, CX
	JMP   openblock

openyes:
	MOVB $1, ret+24(FP)
	VZEROUPPER
	RET

openno:
	MOVB $0, ret+24(FP)
	VZEROUPPER
	RET
