package compress

import (
	"fmt"
	"slices"

	"threelc/internal/kernel"
	"threelc/internal/tensor"
)

func init() {
	RegisterDecoder(SchemeNone, decodeRawAdd)
}

// noneCompressor is the "32-bit float" baseline: state changes are
// transmitted verbatim as little-endian float32. The bytes are moved by
// the kernel package's dispatched raw cores (kernel.AppendRaw, RawAdd,
// RawFirstAdd) — one streaming pass each, so the baseline every ratio is
// quoted against costs what its bytes cost; this file only frames them
// and checks lengths. A worker's push of its gradient takes no pass at
// all: RawWireOver frames the gradient's own memory.
type noneCompressor struct {
	shape []int
	n     int
}

func (c *noneCompressor) Scheme() Scheme { return SchemeNone }
func (c *noneCompressor) Name() string   { return "32-bit float" }

//3lc:noalloc
func (c *noneCompressor) CompressInto(in *tensor.Tensor, dst []byte) []byte {
	data := in.Data()
	if len(data) != c.n {
		panic("compress: input size mismatch")
	}
	dst = append(dst, byte(SchemeNone))
	return kernel.AppendRaw(dst, data)
}

// RawWire appends the scheme byte to dst and reserves the raw body behind
// it (RawWriter).
//
//3lc:noalloc
func (c *noneCompressor) RawWire(dst []byte) (wire, body []byte) {
	off := len(dst) + 1
	wire = slices.Grow(append(dst, byte(SchemeNone)), 4*c.n)[:off+4*c.n]
	return wire, wire[off:]
}

// RawWireOver returns the float32 wire of frame's last n floats as a view
// of frame's memory: the scheme byte, written into the byte in front of
// them, then their little-endian bytes (kernel.RawView) — bit for bit what
// CompressInto appends for them, without the copy, and always their
// current values. It returns nil for a nil frame and on a host whose
// floats are not their wire bytes; there the caller keeps the copying
// CompressInto. Any other frame must hold at least one float in front of
// the n. A ps.Worker pushes each float32 gradient tensor this way, over
// the tensor's nn.Param.GFrame.
func RawWireOver(frame []float32, n int) []byte {
	b := kernel.RawView(frame)
	if b == nil {
		return nil
	}
	wire := b[len(b)-4*n-1:]
	wire[0] = byte(SchemeNone)
	return wire
}

// checkRawLen is the length check every raw decoder runs before it touches
// its destination: a raw payload is exactly 4 bytes per element.
func checkRawLen(payload []byte, n int) error {
	if len(payload) != 4*n {
		return fmt.Errorf("compress: raw payload %d bytes, want %d", len(payload), 4*n)
	}
	return nil
}

// decodeRawAdd accumulates raw float payloads in one pass: dst[i] += v is
// the exact add the staged decode-then-add performs, and the length check
// rejects malformed payloads before dst is touched.
func decodeRawAdd(payload []byte, dst *tensor.Tensor) error {
	if err := checkRawLen(payload, dst.Len()); err != nil {
		return err
	}
	kernel.RawAdd(dst.Data(), payload)
	return nil
}

// decodeRawFirstAdd is the first accumulation of a fresh sum from a raw
// payload, +0 + v per element: what zeroing dst and decodeRawAdd leave, in
// one write-only pass over dst (kernel.RawFirstAdd). A malformed payload
// is rejected with dst untouched; DecompressInto owns the zeroing
// its contract asks for on error.
func decodeRawFirstAdd(payload []byte, dst *tensor.Tensor) error {
	if err := checkRawLen(payload, dst.Len()); err != nil {
		return err
	}
	kernel.RawFirstAdd(dst.Data(), payload)
	return nil
}
