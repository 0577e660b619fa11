// Package simd holds the amd64 AVX2 assembly cores behind the kernel
// package's CPU-feature-dispatched registry — the instruction shapes pure
// Go cannot reach: the byte-level pack and LUT loops (packed compares,
// byte shuffles, 20-byte row adds), the streaming float sweeps,
// accumulate+|max| and the parameter server's fused SGD step (8-wide adds,
// sign-mask abs, a NaN-losing packed max), the raw float32 moves and adds,
// and the 64 × 32 bit transposes of the packed float32 wire (byte shuffles
// and VPMOVMSKB) — plus the CPU feature probe that gates them.
//
// Every core is bit-identical to the scalar kernels in package kernel for
// every input — including ±Inf, negative zero, and denormals — with one
// precisely-bounded exception: when BOTH operands of an accumulate are
// NaN, the surviving payload is whichever operand the hardware add kept,
// and Go itself does not pin ADDSS operand order between differently
// shaped code bodies (SSA canonicalization commutes float adds), so the
// payload may differ between tiers. NaN-ness itself is exact, a NaN slot
// always quantizes to the zero digit, and wire bytes therefore remain
// byte-identical for every input on both tiers; only the payload bits of
// floats that are NaN on both tiers can vary. The kernel package's
// differential fuzz oracles sweep the tiers under exactly this relation.
//
// This package has no dispatch logic of its own: it exposes raw cores and
// the Features report, and package kernel decides which core runs
// (THREELC_KERNEL / cpuid; see kernel.SetTier).
package simd

// Features reports the CPU capabilities the kernel dispatch consults.
// On amd64 it is populated from CPUID/XGETBV at package init; on other
// architectures every field is false and the dispatch stays on the
// scalar tier.
type Features struct {
	// AVX2 is true when the CPU and OS support 256-bit AVX2 integer and
	// float vectors (CPUID leaf 7 AVX2, leaf 1 AVX+OSXSAVE, and XCR0
	// enabling XMM+YMM state) — the x86-64-v3 baseline the assembly fast
	// paths require.
	AVX2 bool
}

var features = detect()

// Detect returns the CPU feature report. The probe itself (two CPUID
// leaves and one XGETBV) ran once at package init: CPUID traps to the
// hypervisor on virtualised hosts, a VM exit per execution, so callers may
// ask as often as they like but the instruction is never re-executed.
func Detect() Features {
	return features
}
