package kernel

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"
)

// Raw float32 kernels: tensors as little-endian IEEE-754 bytes, the wire
// form of the "32-bit float" baseline, of every tensor the 3LC runs exempt
// from compression, and of every float section in a state blob or
// checkpoint. Four dispatched cores move them — put, get, add and
// first-add — and this file's loops are their scalar reference; the asm
// tier's are accMaxAbsAsm's streaming loop minus the max chain. Both tiers
// leave bit-identical bytes and floats, up to NaN payloads on the two adds.
//
// The byte side of every kernel is exactly 4 bytes per float; a mismatch
// is a caller bug and panics. Decoders check payload lengths — untrusted
// input — before they call in.

// AppendRaw appends src to dst as little-endian float32 bytes and returns
// the extended slice, growing it with growCap's headroom when needed.
//
//3lc:noalloc
func AppendRaw(dst []byte, src []float32) []byte {
	off := len(dst)
	dst = growCap(dst, 4*len(src))[:off+4*len(src)]
	rawPutCore(dst[off:], src)
	return dst
}

// RawView returns f's memory as bytes, 4 a float, on a little-endian
// host: exactly the bytes AppendRaw appends for f, every bit pattern
// included, without the copy. On any other host, where a float's memory is
// not its wire form, and for an empty f it returns nil. It is the
// package's one use of unsafe. The view aliases f — a write to either
// shows in the other — and keeps f's allocation alive.
//
//3lc:noalloc
func RawView(f []float32) []byte {
	if !littleEndian || len(f) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(f))), 4*len(f))
}

// littleEndian reports that this host stores a float32 least significant
// byte first, the raw wire's order (RawView).
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// RawGet decodes src, little-endian float32 bytes, into dst: the inverse
// of AppendRaw, preserving every bit pattern.
//
//3lc:noalloc
func RawGet(dst []float32, src []byte) {
	checkRaw("RawGet", dst, src)
	rawGetCore(dst, src)
}

// RawAdd accumulates a raw payload into dst: dst[i] += src[i], with dst as
// operand 1 like every add core in the package.
//
//3lc:noalloc
func RawAdd(dst []float32, src []byte) {
	checkRaw("RawAdd", dst, src)
	rawAddCore(dst, src)
}

// RawFirstAdd is the first accumulation of a fresh sum: dst[i] = +0 +
// src[i], bit for bit what clearing dst and then RawAdd leaves, without the
// clearing sweep and without reading dst. It is an add and not a copy
// because a raw payload can carry −0, and +0 + (−0) is +0: a sum that
// started from a copied −0 would differ from the staged one in that sign
// bit, and would hand the zero-run skip of a later ternary add the one
// input it is not exact on (see DecodeTernaryAdd).
//
//3lc:noalloc
func RawFirstAdd(dst []float32, src []byte) {
	checkRaw("RawFirstAdd", dst, src)
	rawFirstAddCore(dst, src)
}

func checkRaw(op string, floats []float32, raw []byte) {
	if len(raw) != 4*len(floats) {
		panic(fmt.Sprintf("kernel: %s of %d floats against %d bytes", op, len(floats), len(raw)))
	}
}

func rawPutRange(dst []byte, src []float32) {
	for i, v := range src {
		binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(v))
	}
}

func rawGetRange(dst []float32, src []byte) {
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
	}
}

func rawAddRange(dst []float32, src []byte) {
	for i := range dst {
		dst[i] += math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
	}
}

func rawFirstAddRange(dst []float32, src []byte) {
	for i := range dst {
		dst[i] = 0 + math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
	}
}
