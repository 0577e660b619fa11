package kernel

import (
	"fmt"
	"os"

	"threelc/internal/encode"
	"threelc/internal/kernel/simd"
)

// CPU-feature-dispatched kernel registry.
//
// The hot inner loops — the fused accumulate+|max| reduction and the
// read-only |max| reduction, the ternary
// quantize→pack encode, the LUT decode-add, the fused SGD sweep's core for
// each kind of sink, the four raw float32 cores (put, get, add, first-add) and the two
// bit-plane block cores of the packed float32 wire (planes.go, which calls
// them by tier rather than through this table) — exist in two
// implementations ("tiers"):
//
//	scalar  the portable loops in this package: the reference every test
//	        compares against, and the tier that runs where asm cannot.
//	asm     AVX2 amd64 assembly (package simd) for the accumulate+|max|
//	        and |max| reductions, the block-level quantize/pack (which skips
//	        all-zero blocks) and the LUT rows of long literal stretches,
//	        the fused SGD sweeps, the raw float32 cores and the bit-plane
//	        block cores. Requires AVX2.
//
// The tier is chosen once at init — asm when the CPU supports it, else
// scalar — and can be pinned with THREELC_KERNEL=scalar|asm (malformed or
// unavailable values fail fast with a panic, so CI legs can't silently
// test the wrong tier). Both tiers produce byte-identical wires for every
// input, and float outputs bit-identical up to NaN payloads (see package
// simd); the fuzz oracles sweep every available tier.
var (
	activeTier Tier

	// Dispatched cores. The scalar tier binds the loops defined in this
	// package; SetTier swaps them as a set so a tier is always coherent.
	accMaxCore   func(buf, in []float32) float32
	maxCore      func(buf []float32) float32
	sgdStepCore  func(w, v, gs, acc []float32, gscale, wd, mom, lr float32) float32
	sgdDeltaCore func(w, v, gs, delta []float32, gscale, wd, mom, lr float32)
	sgdRawCore   func(w, v, gs []float32, raw []byte, gscale, wd, mom, lr float32)
	addCore      func(body []byte, tab *scaledTab, dst []float32, l *Blocks)
	packBlocksFn func(buf []float32, out []byte, blocks int, tpos, dqNeg, dqZero, dqPos float32)

	// Raw float32 cores (raw.go): the byte side holds 4 bytes per float.
	rawPutCore      func(dst []byte, src []float32)
	rawGetCore      func(dst []float32, src []byte)
	rawAddCore      func(dst []float32, src []byte)
	rawFirstAddCore func(dst []float32, src []byte)
)

// scaledTab is the padded 256-row scaled LUT type shared with package
// simd; rows above encode.MaxQuartic are never decoded from (literal
// loops stop at run markers) and exist so 16-byte row loads stay in
// bounds.
type scaledTab = [256][encode.GroupSize]float32

// Tier identifies one kernel implementation tier.
type Tier int

const (
	TierScalar Tier = iota
	TierAsm
)

func (t Tier) String() string {
	switch t {
	case TierScalar:
		return "scalar"
	case TierAsm:
		return "asm"
	}
	return fmt.Sprintf("Tier(%d)", int(t))
}

// kernelEnv is the environment variable that pins the kernel tier.
const kernelEnv = "THREELC_KERNEL"

// selectTier resolves the tier from the CPU feature report and the
// THREELC_KERNEL override ("" means auto). Split out from init so the
// cpuid-fallback paths are unit-testable on any machine.
func selectTier(f simd.Features, env string) (Tier, error) {
	asmOK := simd.HasAsm && f.AVX2
	switch env {
	case "":
		if asmOK {
			return TierAsm, nil
		}
		return TierScalar, nil
	case "scalar":
		return TierScalar, nil
	case "asm":
		if !asmOK {
			return 0, fmt.Errorf("kernel: %s=asm but CPU/build lacks AVX2 assembly support", kernelEnv)
		}
		return TierAsm, nil
	}
	return 0, fmt.Errorf("kernel: invalid %s=%q (want scalar or asm)", kernelEnv, env)
}

func init() {
	t, err := selectTier(simd.Detect(), os.Getenv(kernelEnv))
	if err != nil {
		panic(err)
	}
	SetTier(t)
}

// SetTier swaps every dispatched core to the given tier. It panics when
// the tier is unavailable on this CPU/build. It is not concurrency-safe:
// it exists for init and for tests/benchmarks that sweep tiers while no
// kernel call is in flight.
func SetTier(t Tier) {
	switch t {
	case TierScalar:
		accMaxCore, maxCore = accMaxAbsRange, maxAbsRange
		sgdStepCore, sgdDeltaCore, sgdRawCore = sgdStepRange, sgdDeltaRange, sgdRawRange
		rawPutCore, rawGetCore = rawPutRange, rawGetRange
		rawAddCore, rawFirstAddCore = rawAddRange, rawFirstAddRange
		addCore = addScaled
		packBlocksFn = nil
	case TierAsm:
		if !simd.HasAsm || !simd.Detect().AVX2 {
			panic("kernel: asm tier unavailable on this CPU/build")
		}
		accMaxCore, maxCore = simd.AccMaxAbsAsm, simd.MaxAbsAsm
		sgdStepCore, sgdDeltaCore, sgdRawCore = simd.SGDStepAsm, simd.SGDStepDeltaAsm, simd.SGDStepRawAsm
		rawPutCore, rawGetCore = simd.RawPutAsm, simd.RawGetAsm
		rawAddCore, rawFirstAddCore = simd.RawAddAsm, simd.RawFirstAddAsm
		addCore = addScaledLits
		packBlocksFn = simd.QuantPackBlocks
	default:
		panic(fmt.Sprintf("kernel: unknown tier %v", t))
	}
	activeTier = t
}

// ActiveTier reports the currently dispatched tier.
func ActiveTier() Tier { return activeTier }

// AvailableTiers lists the tiers this CPU/build can run, in ascending
// order. Tests and benchmarks sweep it.
func AvailableTiers() []Tier {
	tiers := []Tier{TierScalar}
	if simd.HasAsm && simd.Detect().AVX2 {
		tiers = append(tiers, TierAsm)
	}
	return tiers
}
