package kernel

import (
	"testing"

	"threelc/internal/kernel/simd"
)

// TestSelectTier pins the init-time tier resolution: the auto choice
// follows the CPU feature report, explicit pins always win, and
// unavailable or malformed pins fail fast instead of silently running a
// different tier.
func TestSelectTier(t *testing.T) {
	avx2 := simd.Features{AVX2: true}
	noAVX2 := simd.Features{}
	cases := []struct {
		name    string
		f       simd.Features
		env     string
		want    Tier
		wantErr bool
	}{
		{"auto picks asm on AVX2", avx2, "", TierAsm, false},
		{"auto falls back to scalar without AVX2", noAVX2, "", TierScalar, false},
		{"scalar pin on AVX2", avx2, "scalar", TierScalar, false},
		{"scalar pin without AVX2", noAVX2, "scalar", TierScalar, false},
		{"vec pin errors", noAVX2, "vec", 0, true},
		{"asm pin on AVX2", avx2, "asm", TierAsm, false},
		{"asm pin without AVX2 errors", noAVX2, "asm", 0, true},
		{"malformed pin errors", avx2, "avx512", 0, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if !simd.HasAsm && (tc.want == TierAsm || tc.env == "asm") {
				t.Skip("build has no assembly tier")
			}
			got, err := selectTier(tc.f, tc.env)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("selectTier(%+v, %q) = %v, want error", tc.f, tc.env, got)
				}
				return
			}
			if err != nil {
				t.Fatalf("selectTier(%+v, %q): %v", tc.f, tc.env, err)
			}
			if got != tc.want {
				t.Fatalf("selectTier(%+v, %q) = %v, want %v", tc.f, tc.env, got, tc.want)
			}
		})
	}
}

// TestSetTierRoundTrip sweeps every available tier and checks the
// dispatched cores stay a coherent set (ActiveTier reports what SetTier
// installed, and a kernel smoke call works on each tier).
func TestSetTierRoundTrip(t *testing.T) {
	orig := ActiveTier()
	defer SetTier(orig)
	buf := make([]float32, 100)
	in := make([]float32, 100)
	for i := range in {
		in[i] = float32(i) - 50
	}
	for _, tier := range AvailableTiers() {
		SetTier(tier)
		if ActiveTier() != tier {
			t.Fatalf("ActiveTier() = %v after SetTier(%v)", ActiveTier(), tier)
		}
		for i := range buf {
			buf[i] = 0
		}
		if m := AccumulateMaxAbs(buf, in); m != 50 {
			t.Fatalf("tier %v: AccumulateMaxAbs = %v, want 50", tier, m)
		}
	}
}
