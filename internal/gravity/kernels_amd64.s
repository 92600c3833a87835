#include "textflag.h"

// The packed gravity kernels. Four targets (p2p, m2p) or four buckets
// (reach) sit in each YMM register; the operations and their order are
// those of Leaf, applyNode and vec.SphereReaches, with no fused
// multiply-add, so every lane gets the bits the Go code gets. Only
// VEX-encoded instructions are used (a legacy-SSE instruction between
// them costs a state transition per call), and every kernel ends with
// VZEROUPPER.
//
// A slab's target columns are stride float64s apart: x, y, z, ID bits,
// ax, ay, az, pot. With R8 = stride*8, column c is at DI + c*R8; in p2p
// and m2p, R9, R10 and R11 hold 3, 5 and 7 columns.

// Masks for the store of a span's last 1-3 targets: the four quadwords at
// masks<>+8*(4-r) are r all-ones lanes, then zeros.
DATA masks<>+0(SB)/8, $0xffffffffffffffff
DATA masks<>+8(SB)/8, $0xffffffffffffffff
DATA masks<>+16(SB)/8, $0xffffffffffffffff
DATA masks<>+24(SB)/8, $0xffffffffffffffff
DATA masks<>+32(SB)/8, $0
DATA masks<>+40(SB)/8, $0
DATA masks<>+48(SB)/8, $0
DATA masks<>+56(SB)/8, $0
GLOBL masks<>(SB), RODATA|NOPTR, $64

DATA one<>+0(SB)/8, $0x3ff0000000000000
GLOBL one<>(SB), RODATA|NOPTR, $8

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

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func p2p(t *float64, stride, n int, src *particle.Particle, ns int, eps2, grav float64)
//
// Per target, as Leaf: a = 0, pot = 0; per source j in order, skipping a
// source with the target's ID (the lane keeps its accumulators by blend,
// so a -0 stays -0), dx = s - p, r2 = ((dx·dx + dy·dy) + dz·dz) + eps2,
// r = sqrt(r2), a += dx·(m/(r2·r)), pot -= m/r; then Acc += a·G and
// Potential += G·pot.
TEXT ·p2p(SB), NOSPLIT, $0-56
	MOVQ t+0(FP), DI
	MOVQ stride+8(FP), R8
	SHLQ $3, R8
	LEAQ (R8)(R8*2), R9
	LEAQ (R8)(R8*4), R10
	LEAQ (R9)(R8*4), R11
	MOVQ n+16(FP), CX
	MOVQ src+24(FP), SI
	MOVQ ns+32(FP), DX
	VBROADCASTSD eps2+40(FP), Y15
	VBROADCASTSD grav+48(FP), Y14

p2pblock:
	CMPQ CX, $0
	JLE  p2pdone
	VMOVUPD (DI), Y0
	VMOVUPD (DI)(R8*1), Y1
	VMOVUPD (DI)(R8*2), Y2
	VMOVUPD (DI)(R9*1), Y3
	VXORPD  Y4, Y4, Y4
	VXORPD  Y5, Y5, Y5
	VXORPD  Y6, Y6, Y6
	VXORPD  Y7, Y7, Y7
	MOVQ    SI, AX
	MOVQ    DX, BX

p2psource:
	CMPQ BX, $0
	JLE  p2pstore
	VBROADCASTSD 16(AX), Y8
	VSUBPD       Y0, Y8, Y8      // dx = sx - x
	VBROADCASTSD 24(AX), Y9
	VSUBPD       Y1, Y9, Y9
	VBROADCASTSD 32(AX), Y10
	VSUBPD       Y2, Y10, Y10
	VMULPD       Y8, Y8, Y11
	VMULPD       Y9, Y9, Y12
	VADDPD       Y12, Y11, Y11
	VMULPD       Y10, Y10, Y12
	VADDPD       Y12, Y11, Y11
	VADDPD       Y15, Y11, Y11   // r2
	VSQRTPD      Y11, Y12        // r
	VMULPD       Y12, Y11, Y11   // r2·r
	VBROADCASTSD 8(AX), Y13      // m
	VDIVPD       Y11, Y13, Y11   // f = m/(r2·r)
	VDIVPD       Y12, Y13, Y12   // m/r
	VPBROADCASTQ (AX), Y13
	VPCMPEQQ     Y3, Y13, Y13    // self-pair lanes
	VMULPD       Y11, Y8, Y8
	VADDPD       Y8, Y4, Y8
	VBLENDVPD    Y13, Y4, Y8, Y4 // ax = self ? ax : ax + dx·f
	VMULPD       Y11, Y9, Y9
	VADDPD       Y9, Y5, Y9
	VBLENDVPD    Y13, Y5, Y9, Y5
	VMULPD       Y11, Y10, Y10
	VADDPD       Y10, Y6, Y10
	VBLENDVPD    Y13, Y6, Y10, Y6
	VSUBPD       Y12, Y7, Y12
	VBLENDVPD    Y13, Y7, Y12, Y7 // pot = self ? pot : pot - m/r
	ADDQ         $144, AX
	DECQ         BX
	JMP          p2psource

p2pstore:
	VMULPD Y14, Y4, Y4
	VADDPD (DI)(R8*4), Y4, Y4    // Acc + a·G
	VMULPD Y14, Y5, Y5
	VADDPD (DI)(R10*1), Y5, Y5
	VMULPD Y14, Y6, Y6
	VADDPD (DI)(R9*2), Y6, Y6
	VMULPD Y14, Y7, Y7
	VADDPD (DI)(R11*1), Y7, Y7   // Potential + G·pot
	CMPQ   CX, $4
	JLT    p2ptail
	VMOVUPD Y4, (DI)(R8*4)
	VMOVUPD Y5, (DI)(R10*1)
	VMOVUPD Y6, (DI)(R9*2)
	VMOVUPD Y7, (DI)(R11*1)
	ADDQ    $32, DI
	SUBQ    $4, CX
	JMP     p2pblock

p2ptail:
	MOVQ       $4, AX
	SUBQ       CX, AX
	LEAQ       masks<>(SB), BX
	VMOVDQU    (BX)(AX*8), Y13
	VMASKMOVPD Y4, Y13, (DI)(R8*4)
	VMASKMOVPD Y5, Y13, (DI)(R10*1)
	VMASKMOVPD Y6, Y13, (DI)(R9*2)
	VMASKMOVPD Y7, Y13, (DI)(R11*1)

p2pdone:
	VZEROUPPER
	RET

// func m2p(t *float64, stride, n int, cx, cy, cz, gm, eps2 float64)
//
// Per target, as applyNode: dx = c - p, r2 = ((dx·dx + dy·dy) + dz·dz) +
// eps2, r = sqrt(r2), Acc += dx·(gm·(1/(r2·r))), Potential -= gm/r.
TEXT ·m2p(SB), NOSPLIT, $0-64
	MOVQ t+0(FP), DI
	MOVQ stride+8(FP), R8
	SHLQ $3, R8
	LEAQ (R8)(R8*2), R9
	LEAQ (R8)(R8*4), R10
	LEAQ (R9)(R8*4), R11
	MOVQ n+16(FP), CX
	VBROADCASTSD cx+24(FP), Y0
	VBROADCASTSD cy+32(FP), Y1
	VBROADCASTSD cz+40(FP), Y2
	VBROADCASTSD gm+48(FP), Y3
	VBROADCASTSD eps2+56(FP), Y15
	VBROADCASTSD one<>(SB), Y14

m2pblock:
	CMPQ CX, $0
	JLE  m2pdone
	VSUBPD  (DI), Y0, Y4         // dx = cx - x
	VSUBPD  (DI)(R8*1), Y1, Y5
	VSUBPD  (DI)(R8*2), Y2, Y6
	VMULPD  Y4, Y4, Y7
	VMULPD  Y5, Y5, Y8
	VADDPD  Y8, Y7, Y7
	VMULPD  Y6, Y6, Y8
	VADDPD  Y8, Y7, Y7
	VADDPD  Y15, Y7, Y7          // r2
	VSQRTPD Y7, Y8               // r
	VMULPD  Y8, Y7, Y7           // r2·r
	VDIVPD  Y7, Y14, Y7          // 1/(r2·r)
	VMULPD  Y7, Y3, Y7           // gm·(1/(r2·r))
	VDIVPD  Y8, Y3, Y8           // gm/r
	VMULPD  Y7, Y4, Y4
	VADDPD  (DI)(R8*4), Y4, Y4
	VMULPD  Y7, Y5, Y5
	VADDPD  (DI)(R10*1), Y5, Y5
	VMULPD  Y7, Y6, Y6
	VADDPD  (DI)(R9*2), Y6, Y6
	VMOVUPD (DI)(R11*1), Y9
	VSUBPD  Y8, Y9, Y9           // Potential - gm/r
	CMPQ    CX, $4
	JLT     m2ptail
	VMOVUPD Y4, (DI)(R8*4)
	VMOVUPD Y5, (DI)(R10*1)
	VMOVUPD Y6, (DI)(R9*2)
	VMOVUPD Y9, (DI)(R11*1)
	ADDQ    $32, DI
	SUBQ    $4, CX
	JMP     m2pblock

m2ptail:
	MOVQ       $4, AX
	SUBQ       CX, AX
	LEAQ       masks<>(SB), BX
	VMOVDQU    (BX)(AX*8), Y13
	VMASKMOVPD Y4, Y13, (DI)(R8*4)
	VMASKMOVPD Y5, Y13, (DI)(R10*1)
	VMASKMOVPD Y6, Y13, (DI)(R9*2)
	VMASKMOVPD Y9, Y13, (DI)(R11*1)

m2pdone:
	VZEROUPPER
	RET

// Masks for the last 1-3 entries of an active list: the four dwords at
// dmasks<>+4*(4-r) are r all-ones lanes, then zeros.
DATA dmasks<>+0(SB)/4, $0xffffffff
DATA dmasks<>+4(SB)/4, $0xffffffff
DATA dmasks<>+8(SB)/4, $0xffffffff
DATA dmasks<>+12(SB)/4, $0xffffffff
DATA dmasks<>+16(SB)/4, $0
DATA dmasks<>+20(SB)/4, $0
DATA dmasks<>+24(SB)/4, $0
DATA dmasks<>+28(SB)/4, $0
GLOBL dmasks<>(SB), RODATA|NOPTR, $32

// func reach(boxes *float64, nb int, active *int32, n int, cx, cy, cz, rsq float64, open *uint8)
//
// Per entry, as vec.SphereReaches on the box of bucket active[i]: with
// t = (c-Max > 0) ? c-Max : 0 and d = (Min-c > t) ? Min-c : t on each
// axis, the bucket is reached when ((dx·dx + dy·dy) + dz·dz) <= rsq and
// no axis has Min > Max. Emptiness is tested on its own: EmptyBox's ±Inf
// give d2 = +Inf, which passes at rsq = +Inf. VMAXPD returns its second
// source when either input is NaN, so both maxima take 0 or t there, as
// the scalar test's false comparisons do. The boxes are six columns nb
// float64s apart (min x/y/z, max x/y/z), gathered four buckets at a time
// on the int32 indices; the decisions of entries 4g..4g+3 go to bits 0-3
// of open[g]. A last group of 1-3 entries loads its indices and gathers
// under a mask, so nothing past active[n-1] is read.
TEXT ·reach(SB), NOSPLIT, $0-72
	MOVQ boxes+0(FP), SI
	MOVQ nb+8(FP), R8
	SHLQ $3, R8
	LEAQ (SI)(R8*1), DI          // min y
	LEAQ (DI)(R8*1), R9          // min z
	LEAQ (R9)(R8*1), R10         // max x
	LEAQ (R10)(R8*1), R11        // max y
	LEAQ (R11)(R8*1), R12        // max z
	MOVQ active+16(FP), DX
	MOVQ n+24(FP), CX
	VBROADCASTSD cx+32(FP), Y10
	VBROADCASTSD cy+40(FP), Y11
	VBROADCASTSD cz+48(FP), Y12
	VBROADCASTSD rsq+56(FP), Y13
	MOVQ open+64(FP), AX
	VXORPD Y15, Y15, Y15

reachblock:
	CMPQ CX, $0
	JLE  reachdone
	CMPQ CX, $4
	JLT  reachtail
	VMOVDQU  (DX), X0            // four bucket indices
	VPCMPEQD Y14, Y14, Y14       // every lane
	JMP      reachtest

reachtail:
	MOVQ       $4, BX
	SUBQ       CX, BX
	LEAQ       dmasks<>(SB), R13
	VMOVDQU    (R13)(BX*4), X14
	VPMASKMOVD (DX), X14, X0
	VPMOVSXDQ  X14, Y14

reachtest:
	VXORPD     Y1, Y1, Y1
	VMOVAPD    Y14, Y9
	VGATHERDPD Y9, (SI)(X0*8), Y1   // min x
	VXORPD     Y2, Y2, Y2
	VMOVAPD    Y14, Y9
	VGATHERDPD Y9, (R10)(X0*8), Y2  // max x
	VXORPD     Y3, Y3, Y3
	VMOVAPD    Y14, Y9
	VGATHERDPD Y9, (DI)(X0*8), Y3   // min y
	VXORPD     Y4, Y4, Y4
	VMOVAPD    Y14, Y9
	VGATHERDPD Y9, (R11)(X0*8), Y4  // max y
	VXORPD     Y5, Y5, Y5
	VMOVAPD    Y14, Y9
	VGATHERDPD Y9, (R9)(X0*8), Y5   // min z
	VXORPD     Y6, Y6, Y6
	VMOVAPD    Y14, Y9
	VGATHERDPD Y9, (R12)(X0*8), Y6  // max z

	VCMPPD  $0x1e, Y2, Y1, Y7    // empty: min x > max x
	VCMPPD  $0x1e, Y4, Y3, Y8
	VORPD   Y8, Y7, Y7
	VCMPPD  $0x1e, Y6, Y5, Y8
	VORPD   Y8, Y7, Y7           // ... or the same on y or z

	VSUBPD  Y2, Y10, Y2          // c - max
	VMAXPD  Y15, Y2, Y2          // t = (c-max > 0) ? c-max : 0
	VSUBPD  Y10, Y1, Y1          // min - c
	VMAXPD  Y2, Y1, Y1           // d = (min-c > t) ? min-c : t
	VMULPD  Y1, Y1, Y1
	VSUBPD  Y4, Y11, Y4
	VMAXPD  Y15, Y4, Y4
	VSUBPD  Y11, Y3, Y3
	VMAXPD  Y4, Y3, Y3
	VMULPD  Y3, Y3, Y3
	VADDPD  Y3, Y1, Y1           // dx·dx + dy·dy
	VSUBPD  Y6, Y12, Y6
	VMAXPD  Y15, Y6, Y6
	VSUBPD  Y12, Y5, Y5
	VMAXPD  Y6, Y5, Y5
	VMULPD  Y5, Y5, Y5
	VADDPD  Y5, Y1, Y1           // d2
	VCMPPD  $0x12, Y13, Y1, Y1   // d2 <= rsq, ordered
	VANDNPD Y1, Y7, Y1           // and not empty
	VANDPD  Y14, Y1, Y1          // listed lanes only
	VMOVMSKPD Y1, BX
	MOVB    BX, (AX)
	INCQ    AX
	ADDQ    $16, DX
	SUBQ    $4, CX
	JMP     reachblock

reachdone:
	VZEROUPPER
	RET
