#include "textflag.h"

// The packed gravity kernels. Eight targets (p2p, m2p) or four buckets
// (reach) sit in each YMM register; the operations and their order are
// those of the Go bodies in kernels.go, with no fused multiply-add, so
// every lane gets the bits Leaf, Node and vec.SphereReaches get. p2p and
// m2p compute in float32 and add to float64 accumulators. Only
// VEX-encoded instructions are used (a legacy-SSE instruction between
// them costs a state transition per call), and every kernel ends with
// VZEROUPPER.
//
// A slab's target columns are stride float64s apart: x, y, z, ID bits,
// ax, ay, az, pot. With R8 = stride*8, column c is at DI + c*R8; in p2p
// and m2p, R9, R10 and R11 hold 3, 5 and 7 columns. Eight targets of a
// column are two YMM registers of float64s, at 0 and 32 bytes.

// Masks for the store of a block's last 1-7 targets: the eight quadwords
// at masks<>+8*(8-r) are r all-ones lanes, then zeros.
DATA masks<>+0(SB)/8, $0xffffffffffffffff
DATA masks<>+8(SB)/8, $0xffffffffffffffff
DATA masks<>+16(SB)/8, $0xffffffffffffffff
DATA masks<>+24(SB)/8, $0xffffffffffffffff
DATA masks<>+32(SB)/8, $0xffffffffffffffff
DATA masks<>+40(SB)/8, $0xffffffffffffffff
DATA masks<>+48(SB)/8, $0xffffffffffffffff
DATA masks<>+56(SB)/8, $0xffffffffffffffff
DATA masks<>+64(SB)/8, $0
DATA masks<>+72(SB)/8, $0
DATA masks<>+80(SB)/8, $0
DATA masks<>+88(SB)/8, $0
DATA masks<>+96(SB)/8, $0
DATA masks<>+104(SB)/8, $0
DATA masks<>+112(SB)/8, $0
DATA masks<>+120(SB)/8, $0
GLOBL masks<>(SB), RODATA|NOPTR, $128

// func p2pAVX2(t *float64, stride, n int, src *[4]float32, ids *int64, ns int, ox, oy, oz float64, eps2 float32, grav float64)
//
// Per target, as p2pGo: t' = float32(t - o); a = 0, pot = 0 in float32;
// per source (x', y', z', m) in order, dx = s' - t',
// r2 = ((dx·dx + dy·dy) + dz·dz) + eps2, r = sqrt(r2), f = m/(r2·r),
// a += dx·f, pot -= m/r, skipping a source with the target's ID or a
// non-finite f (the lane keeps its sums by blend, so a -0 stays -0);
// then, in float64, Acc += a·G and Potential += G·pot. The IDs are
// compared as two dwords each: Y3 holds the low halves of the eight
// target IDs, Y4 the high halves. eps2 is broadcast from the frame per
// source, so Y15 is free for the non-finite lanes.
TEXT ·p2pAVX2(SB), NOSPLIT, $0-88
	MOVQ t+0(FP), DI
	MOVQ stride+8(FP), R8
	SHLQ $3, R8
	LEAQ (R8)(R8*2), R9
	LEAQ (R8)(R8*4), R10
	LEAQ (R9)(R8*4), R11
	MOVQ n+16(FP), CX
	MOVQ src+24(FP), SI
	MOVQ ids+32(FP), R12
	MOVQ ns+40(FP), DX

p2pblock:
	CMPQ CX, $0
	JLE  p2pdone
	VBROADCASTSD ox+48(FP), Y9
	VMOVUPD      (DI), Y10
	VSUBPD       Y9, Y10, Y10          // x - ox, targets 0-3
	VCVTPD2PSY   Y10, X0
	VMOVUPD      32(DI), Y10
	VSUBPD       Y9, Y10, Y10          // targets 4-7
	VCVTPD2PSY   Y10, X10
	VINSERTF128  $1, X10, Y0, Y0       // x'
	VBROADCASTSD oy+56(FP), Y9
	VMOVUPD      (DI)(R8*1), Y10
	VSUBPD       Y9, Y10, Y10
	VCVTPD2PSY   Y10, X1
	VMOVUPD      32(DI)(R8*1), Y10
	VSUBPD       Y9, Y10, Y10
	VCVTPD2PSY   Y10, X10
	VINSERTF128  $1, X10, Y1, Y1       // y'
	VBROADCASTSD oz+64(FP), Y9
	VMOVUPD      (DI)(R8*2), Y10
	VSUBPD       Y9, Y10, Y10
	VCVTPD2PSY   Y10, X2
	VMOVUPD      32(DI)(R8*2), Y10
	VSUBPD       Y9, Y10, Y10
	VCVTPD2PSY   Y10, X10
	VINSERTF128  $1, X10, Y2, Y2       // z'
	VMOVDQU      (DI)(R9*1), Y10       // IDs 0-3
	VMOVDQU      32(DI)(R9*1), Y11     // IDs 4-7
	VSHUFPS      $0x88, Y11, Y10, Y3   // low dwords of IDs 0 1 4 5 | 2 3 6 7
	VPERMQ       $0xd8, Y3, Y3         // low dwords of IDs 0-7
	VSHUFPS      $0xdd, Y11, Y10, Y4
	VPERMQ       $0xd8, Y4, Y4         // high dwords of IDs 0-7
	VXORPS       Y5, Y5, Y5
	VXORPS       Y6, Y6, Y6
	VXORPS       Y7, Y7, Y7
	VXORPS       Y8, Y8, Y8
	MOVQ         SI, AX
	MOVQ         R12, BX
	MOVQ         DX, R13

p2psource:
	CMPQ R13, $0
	JLE  p2pstore
	VBROADCASTSS 0(AX), Y9
	VSUBPS       Y0, Y9, Y9            // dx = x' of the source - x'
	VBROADCASTSS 4(AX), Y10
	VSUBPS       Y1, Y10, Y10
	VBROADCASTSS 8(AX), Y11
	VSUBPS       Y2, Y11, Y11
	VMULPS       Y9, Y9, Y12
	VMULPS       Y10, Y10, Y13
	VADDPS       Y13, Y12, Y12
	VMULPS       Y11, Y11, Y13
	VADDPS       Y13, Y12, Y12
	VBROADCASTSS eps2+72(FP), Y13
	VADDPS       Y13, Y12, Y12         // r2
	VSQRTPS      Y12, Y13              // r
	VMULPS       Y13, Y12, Y12         // r2·r
	VBROADCASTSS 12(AX), Y14           // m
	VDIVPS       Y12, Y14, Y12         // f = m/(r2·r)
	VDIVPS       Y13, Y14, Y13         // m/r
	VSUBPS       Y12, Y12, Y15         // f - f: NaN where f is not finite
	VCMPPS       $3, Y15, Y15, Y15     // unordered: the non-finite lanes
	VMULPS       Y12, Y9, Y9
	VMULPS       Y12, Y10, Y10
	VMULPS       Y12, Y11, Y11
	VPBROADCASTD 0(BX), Y12
	VPCMPEQD     Y3, Y12, Y12
	VPBROADCASTD 4(BX), Y14
	VPCMPEQD     Y4, Y14, Y14
	VPAND        Y14, Y12, Y12         // self-pair lanes
	VPOR         Y15, Y12, Y12         // skipped lanes
	VADDPS       Y9, Y5, Y9
	VBLENDVPS    Y12, Y5, Y9, Y5       // ax = skip ? ax : ax + dx·f
	VADDPS       Y10, Y6, Y10
	VBLENDVPS    Y12, Y6, Y10, Y6
	VADDPS       Y11, Y7, Y11
	VBLENDVPS    Y12, Y7, Y11, Y7
	VSUBPS       Y13, Y8, Y13
	VBLENDVPS    Y12, Y8, Y13, Y8      // pot = skip ? pot : pot - m/r
	ADDQ         $16, AX
	ADDQ         $8, BX
	DECQ         R13
	JMP          p2psource

p2pstore:
	VBROADCASTSD grav+80(FP), Y14
	VCVTPS2PD    X5, Y9
	VEXTRACTF128 $1, Y5, X5
	VCVTPS2PD    X5, Y10
	VMULPD       Y14, Y9, Y9
	VADDPD       (DI)(R8*4), Y9, Y9    // Acc + a·G, targets 0-3
	VMULPD       Y14, Y10, Y10
	VADDPD       32(DI)(R8*4), Y10, Y10 // targets 4-7
	VCVTPS2PD    X6, Y11
	VEXTRACTF128 $1, Y6, X6
	VCVTPS2PD    X6, Y12
	VMULPD       Y14, Y11, Y11
	VADDPD       (DI)(R10*1), Y11, Y11
	VMULPD       Y14, Y12, Y12
	VADDPD       32(DI)(R10*1), Y12, Y12
	VCVTPS2PD    X7, Y0
	VEXTRACTF128 $1, Y7, X7
	VCVTPS2PD    X7, Y1
	VMULPD       Y14, Y0, Y0
	VADDPD       (DI)(R9*2), Y0, Y0
	VMULPD       Y14, Y1, Y1
	VADDPD       32(DI)(R9*2), Y1, Y1
	VCVTPS2PD    X8, Y2
	VEXTRACTF128 $1, Y8, X8
	VCVTPS2PD    X8, Y3
	VMULPD       Y14, Y2, Y2
	VADDPD       (DI)(R11*1), Y2, Y2   // Potential + G·pot
	VMULPD       Y14, Y3, Y3
	VADDPD       32(DI)(R11*1), Y3, Y3
	CMPQ         CX, $8
	JLT          p2ptail
	VMOVUPD      Y9, (DI)(R8*4)
	VMOVUPD      Y10, 32(DI)(R8*4)
	VMOVUPD      Y11, (DI)(R10*1)
	VMOVUPD      Y12, 32(DI)(R10*1)
	VMOVUPD      Y0, (DI)(R9*2)
	VMOVUPD      Y1, 32(DI)(R9*2)
	VMOVUPD      Y2, (DI)(R11*1)
	VMOVUPD      Y3, 32(DI)(R11*1)
	ADDQ         $64, DI
	SUBQ         $8, CX
	JMP          p2pblock

p2ptail:
	MOVQ       $8, AX
	SUBQ       CX, AX
	LEAQ       masks<>(SB), BX
	VMOVDQU    (BX)(AX*8), Y4
	VMOVDQU    32(BX)(AX*8), Y13
	VMASKMOVPD Y9, Y4, (DI)(R8*4)
	VMASKMOVPD Y10, Y13, 32(DI)(R8*4)
	VMASKMOVPD Y11, Y4, (DI)(R10*1)
	VMASKMOVPD Y12, Y13, 32(DI)(R10*1)
	VMASKMOVPD Y0, Y4, (DI)(R9*2)
	VMASKMOVPD Y1, Y13, 32(DI)(R9*2)
	VMASKMOVPD Y2, Y4, (DI)(R11*1)
	VMASKMOVPD Y3, Y13, 32(DI)(R11*1)

p2pdone:
	VZEROUPPER
	RET

// func m2pAVX2(t *float64, stride, n int, cx, cy, cz float64, gm, eps2 float32)
//
// Per target, as m2pGo: dx = float32(c - p), the difference in float64;
// r2 = ((dx·dx + dy·dy) + dz·dz) + eps2, r = sqrt(r2), f = gm/(r2·r) in
// float32; then Acc += dx·f and Potential -= gm/r in float64.
TEXT ·m2pAVX2(SB), NOSPLIT, $0-56
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
	VBROADCASTSS gm+48(FP), Y3
	VBROADCASTSS eps2+52(FP), Y15

m2pblock:
	CMPQ CX, $0
	JLE  m2pdone
	VSUBPD       (DI), Y0, Y4          // cx - x, targets 0-3
	VCVTPD2PSY   Y4, X4
	VSUBPD       32(DI), Y0, Y7        // targets 4-7
	VCVTPD2PSY   Y7, X7
	VINSERTF128  $1, X7, Y4, Y4        // dx
	VSUBPD       (DI)(R8*1), Y1, Y5
	VCVTPD2PSY   Y5, X5
	VSUBPD       32(DI)(R8*1), Y1, Y7
	VCVTPD2PSY   Y7, X7
	VINSERTF128  $1, X7, Y5, Y5        // dy
	VSUBPD       (DI)(R8*2), Y2, Y6
	VCVTPD2PSY   Y6, X6
	VSUBPD       32(DI)(R8*2), Y2, Y7
	VCVTPD2PSY   Y7, X7
	VINSERTF128  $1, X7, Y6, Y6        // dz
	VMULPS       Y4, Y4, Y7
	VMULPS       Y5, Y5, Y8
	VADDPS       Y8, Y7, Y7
	VMULPS       Y6, Y6, Y8
	VADDPS       Y8, Y7, Y7
	VADDPS       Y15, Y7, Y7           // r2
	VSQRTPS      Y7, Y8                // r
	VMULPS       Y8, Y7, Y7            // r2·r
	VDIVPS       Y7, Y3, Y7            // f = gm/(r2·r)
	VDIVPS       Y8, Y3, Y8            // gm/r
	VMULPS       Y7, Y4, Y4
	VCVTPS2PD    X4, Y9
	VEXTRACTF128 $1, Y4, X4
	VCVTPS2PD    X4, Y10
	VADDPD       (DI)(R8*4), Y9, Y9    // Acc + dx·f, targets 0-3
	VADDPD       32(DI)(R8*4), Y10, Y10 // targets 4-7
	VMULPS       Y7, Y5, Y5
	VCVTPS2PD    X5, Y11
	VEXTRACTF128 $1, Y5, X5
	VCVTPS2PD    X5, Y12
	VADDPD       (DI)(R10*1), Y11, Y11
	VADDPD       32(DI)(R10*1), Y12, Y12
	VMULPS       Y7, Y6, Y6
	VCVTPS2PD    X6, Y13
	VEXTRACTF128 $1, Y6, X6
	VCVTPS2PD    X6, Y14
	VADDPD       (DI)(R9*2), Y13, Y13
	VADDPD       32(DI)(R9*2), Y14, Y14
	VCVTPS2PD    X8, Y4
	VEXTRACTF128 $1, Y8, X8
	VCVTPS2PD    X8, Y5
	VMOVUPD      (DI)(R11*1), Y6
	VSUBPD       Y4, Y6, Y4            // Potential - gm/r
	VMOVUPD      32(DI)(R11*1), Y6
	VSUBPD       Y5, Y6, Y5
	CMPQ         CX, $8
	JLT          m2ptail
	VMOVUPD      Y9, (DI)(R8*4)
	VMOVUPD      Y10, 32(DI)(R8*4)
	VMOVUPD      Y11, (DI)(R10*1)
	VMOVUPD      Y12, 32(DI)(R10*1)
	VMOVUPD      Y13, (DI)(R9*2)
	VMOVUPD      Y14, 32(DI)(R9*2)
	VMOVUPD      Y4, (DI)(R11*1)
	VMOVUPD      Y5, 32(DI)(R11*1)
	ADDQ         $64, DI
	SUBQ         $8, CX
	JMP          m2pblock

m2ptail:
	MOVQ       $8, AX
	SUBQ       CX, AX
	LEAQ       masks<>(SB), BX
	VMOVDQU    (BX)(AX*8), Y6
	VMOVDQU    32(BX)(AX*8), Y7
	VMASKMOVPD Y9, Y6, (DI)(R8*4)
	VMASKMOVPD Y10, Y7, 32(DI)(R8*4)
	VMASKMOVPD Y11, Y6, (DI)(R10*1)
	VMASKMOVPD Y12, Y7, 32(DI)(R10*1)
	VMASKMOVPD Y13, Y6, (DI)(R9*2)
	VMASKMOVPD Y14, Y7, 32(DI)(R9*2)
	VMASKMOVPD Y4, Y6, (DI)(R11*1)
	VMASKMOVPD Y5, Y7, 32(DI)(R11*1)

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

// func reachAVX2(boxes *float64, nb int, active *int32, n int, cx, cy, cz, rsq float64, open *uint8)
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
TEXT ·reachAVX2(SB), NOSPLIT, $0-72
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
