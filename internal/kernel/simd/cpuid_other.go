//go:build !amd64

package simd

// detect on non-amd64 architectures reports no vector features: the
// kernel dispatch stays on the portable scalar tier.
func detect() Features {
	return Features{}
}
