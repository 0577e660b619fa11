package simd

import (
	"math/rand"
	"testing"
)

func BenchmarkQuantPackBlocks1M(b *testing.B) {
	if !Detect().AVX2 {
		b.Skip("no AVX2")
	}
	n := 1 << 20
	buf := make([]float32, n)
	rng := rand.New(rand.NewSource(1))
	for i := range buf {
		buf[i] = float32(rng.NormFloat64())
	}
	out := make([]byte, n/5+1)
	blocks := n / 40
	b.SetBytes(int64(8 * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		QuantPackBlocks(buf, out, blocks, 0.7, -1.2, 0, 1.2)
	}
}

func BenchmarkAddScaledLiteralsAsm1M(b *testing.B) {
	if !Detect().AVX2 {
		b.Skip("no AVX2")
	}
	n := 1 << 20
	body := make([]byte, n/5)
	rng := rand.New(rand.NewSource(1))
	for i := range body {
		body[i] = byte(rng.Intn(243))
	}
	dst := make([]float32, n)
	tab := buildLUT(1.5)
	b.SetBytes(int64(8 * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AddScaledLiteralsAsm(tab, body, dst)
	}
}
