// Package transport runs the parameter-server protocol of package ps over
// a real network (TCP or any net.Conn): workers connect to the server,
// push compressed gradient wires each step, and receive the shared
// compressed model-delta wires back. This is the deployable counterpart
// of the in-process driver in package train — the wire bytes are exactly
// the ones package compress produces, so everything the simulator
// measures also holds on a real link.
//
// Framing is deliberately simple and allocation-free in steady state:
//
//	frame  := [4B LE total payload length][1B type][payload]
//	hello  := [4B LE workerID]
//	push   := [4B LE workerID][4B LE step][wire set]
//	pull   := [4B LE step][wire set]
//	wire set := [4B LE tensor count]{[4B LE len][len bytes]}*
//
// A zero-length tensor entry encodes a nil wire (the local-steps scheme's
// non-transmitting step). WriteFrame coalesces header and payload into one
// buffered write (one syscall on an unbuffered conn), and FrameReader
// reuses a per-connection scratch buffer so the receive path stops
// allocating once the largest frame size has been seen.
package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"
)

// MsgType identifies a frame.
type MsgType byte

// Frame types.
const (
	MsgHello MsgType = iota + 1
	MsgPush
	MsgPull
)

// MaxFrameBytes bounds a single frame (64 MiB) to keep a corrupt or
// malicious length prefix from exhausting memory.
const MaxFrameBytes = 64 << 20

var le = binary.LittleEndian

// framePool recycles coalesced write buffers across WriteFrame calls.
var framePool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// maxPooledFrame caps what WriteFrame coalesces through framePool: a
// frame can be up to MaxFrameBytes (64 MiB), and pooling such a buffer
// would pin it until the next GC pool drain.
const maxPooledFrame = 1 << 20

// WriteFrame writes one framed message. The 4-byte length prefix, the type
// byte, and (up to maxPooledFrame) the payload are coalesced into a single
// pooled buffer and issued as ONE Write call — on an unbuffered net.Conn
// that is one syscall and one TCP segment boundary instead of two, and on
// a bufio.Writer it avoids the double copy-in. The length check is
// definitionally the one ReadFrame enforces: the encoded length
// n = 1+len(payload) must satisfy 0 < n <= MaxFrameBytes, so every frame
// WriteFrame accepts is a frame ReadFrame accepts, and vice versa.
//
//3lc:noalloc
func WriteFrame(w io.Writer, t MsgType, payload []byte) error {
	n := 1 + len(payload)
	if n > MaxFrameBytes {
		return fmt.Errorf("transport: frame of %d bytes exceeds limit %d", n, MaxFrameBytes)
	}
	bp := framePool.Get().(*[]byte)
	// The header bytes are appended inline rather than staged in a local
	// array: an array sliced into an io.Writer argument escapes, and one
	// heap-allocated header per frame is exactly the per-step garbage the
	// steady-state zero-alloc gate forbids.
	buf := append((*bp)[:0], byte(n), byte(n>>8), byte(n>>16), byte(n>>24), byte(t))
	// A frame too big to pool goes out as two writes, header then payload:
	// copying a multi-MiB payload would cost more than it saves, a buffered
	// writer still coalesces them and an unbuffered one streams them in two
	// syscalls — negligible at this size.
	large := 5+n > maxPooledFrame
	if !large {
		buf = append(buf, payload...)
	}
	_, err := w.Write(buf)
	*bp = buf
	framePool.Put(bp)
	if large && err == nil {
		_, err = w.Write(payload)
	}
	return err
}

// ReadFrame reads one framed message into a fresh buffer. Connection loops
// should prefer FrameReader, which recycles its buffer across frames.
func ReadFrame(r io.Reader) (MsgType, []byte, error) {
	var fr FrameReader
	fr.r = r
	return fr.ReadFrame()
}

// FrameReader reads framed messages from one connection, reusing a single
// scratch buffer: after the first few steps of a training run the receive
// path performs zero allocations. The payload returned by ReadFrame
// aliases the scratch buffer and is valid only until the next ReadFrame
// call; callers that need the bytes longer must copy them.
type FrameReader struct {
	r   io.Reader
	buf []byte
	// hdr is the length-prefix scratch. A function-local array sliced
	// into io.ReadFull escapes and would cost one heap allocation per
	// frame; a field on the (already heap-resident) reader does not.
	hdr [4]byte
}

// NewFrameReader wraps r (typically the buffered read side of a
// connection).
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: r}
}

// ReadFrame reads one framed message. The returned payload is valid until
// the next call.
//
//3lc:noalloc
//3lc:decode
func (fr *FrameReader) ReadFrame() (MsgType, []byte, error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		return 0, nil, err
	}
	n := le.Uint32(fr.hdr[:])
	if n == 0 || n > MaxFrameBytes {
		return 0, nil, fmt.Errorf("transport: bad frame length %d", n)
	}
	if cap(fr.buf) < int(n) {
		//3lc:allow noalloc grow-once scratch; steady state reuses fr.buf
		fr.buf = make([]byte, n)
	}
	buf := fr.buf[:n]
	if _, err := io.ReadFull(fr.r, buf); err != nil {
		return 0, nil, err
	}
	//3lc:allow nopanic n >= 1 enforced above and buf is fr.buf[:n]
	return MsgType(buf[0]), buf[1:], nil
}

// AppendWireSet serializes a set of per-tensor wire messages.
//
//3lc:noalloc
func AppendWireSet(dst []byte, wires [][]byte) []byte {
	var n [4]byte
	le.PutUint32(n[:], uint32(len(wires)))
	dst = append(dst, n[:]...)
	for _, w := range wires {
		le.PutUint32(n[:], uint32(len(w)))
		dst = append(dst, n[:]...)
		dst = append(dst, w...)
	}
	return dst
}

// ParseWireSet deserializes a wire set, returning the wires and the number
// of bytes consumed.
//
//3lc:decode
func ParseWireSet(src []byte) ([][]byte, int, error) {
	return ParseWireSetInto(nil, src)
}

// ParseWireSetInto deserializes a wire set into dst's backing storage
// (grown only when the tensor count exceeds its capacity), so a
// connection loop parsing one wire set per step reuses the same slice
// header array. The returned wires alias src.
//
//3lc:noalloc
//3lc:decode
func ParseWireSetInto(dst [][]byte, src []byte) ([][]byte, int, error) {
	if len(src) < 4 {
		return nil, 0, fmt.Errorf("transport: wire set truncated (no count)")
	}
	count := int(le.Uint32(src))
	if count < 0 || count > 1<<20 {
		return nil, 0, fmt.Errorf("transport: implausible tensor count %d", count)
	}
	off := 4
	var wires [][]byte
	if cap(dst) >= count {
		wires = dst[:count]
	} else {
		//3lc:allow noalloc grow path; steady state reuses dst's header array
		wires = make([][]byte, count)
	}
	for i := range wires {
		wires[i] = nil
		if len(src) < off+4 {
			return nil, 0, fmt.Errorf("transport: wire set truncated at tensor %d", i)
		}
		l := int(le.Uint32(src[off:]))
		off += 4
		if len(src) < off+l {
			return nil, 0, fmt.Errorf("transport: tensor %d body truncated (%d of %d bytes)", i, len(src)-off, l)
		}
		if l > 0 {
			wires[i] = src[off : off+l]
		}
		off += l
	}
	return wires, off, nil
}
