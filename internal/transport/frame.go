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
//	frame    := [4B LE total payload length][1B type][payload]
//
// Every payload opens with a shard header (shard.go), whether the tier has
// one shard or many, and every push and pull is a stream of runs behind
// it (shard.go). A zero-length entry is the empty wire (a tensor the
// worker does not push — ps.Pushes — or the local-steps scheme's
// non-transmitting step). A connection (link, session.go) encodes frames
// behind their prefixes into one outgoing queue and hands the socket whole
// flushes: the protocol's turn (hello, bye), or a run — every tensor of a
// stream queued since the last flush, behind one shard header. Runs go up
// to flushBytes and past it by their last tensor, so frames routinely
// straddle the reads of the receiving side. The queue copies every byte of
// framing and every wire under flushBytes; a wire of flushBytes or more
// stays where its producer wrote it and is spliced in at its place
// (frames), so past its encoder a float32 tensor is copied only by the
// socket.
// FrameReader reassembles frames over a buffered reader sized to one flush,
// each into a buffer its caller recycles, so the receive path stops
// allocating once the largest frames have been seen. WriteFrame is the
// same framing for any io.Writer, outside a link.
//
// A wire set, [4B LE tensor count]{[4B LE len][len bytes]}*, is no frame's
// body any more; AppendWireSet and ParseWireSetInto stay for the
// benchmark's framing probe.
package transport

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sync"
)

// MsgType identifies a frame.
type MsgType byte

// MsgPush is type byte 2, reserved (codec.go): no connection sends or
// accepts it. The name stays only for bench/probes.go's framing probe,
// until ROADMAP item 1C moves it.
const MsgPush MsgType = 2

// MaxFrameBytes bounds a single frame (64 MiB) to keep a corrupt or
// malicious length prefix from exhausting memory.
const MaxFrameBytes = 64 << 20

var le = binary.LittleEndian

// frameHeaderLen is the frame prefix: payload length and type byte.
const frameHeaderLen = 5

// flushBytes is the size at which a link writes out the frames queued on
// it without waiting for the end of their stream, and the size of its
// read buffer, so that what one flush wrote one read drains. A wire this
// long is a flush of its own, so frames splice it instead of copying it.
const flushBytes = 64 << 10

// frames is encoded frames as they travel, ready for a socket: the bytes
// b, except that each wire of at least flushBytes a frame carries is not
// copied into b but referenced at its splice point. Everything that sizes
// a frame — its length prefix, the MaxFrameBytes check, its CRC-32C
// trailer — covers the spliced bytes, and a link writes the segments of
// b between splice points and the spliced wires in order, in one
// net.Buffers write (one writev on a TCP connection): the socket carries
// the copied encoding byte for byte. A spliced wire must stay unchanged
// until the frames are written or dropped. With flat set every wire is
// copied, which is the copied encoding itself.
//
// The last frame may be a run still open (entry): more entries join it
// until closeRun closes it.
type frames struct {
	b       []byte
	splices []splice
	spliced int  // bytes of the spliced wires
	flat    bool // copy every wire
	n       int  // frames closed since the last reset
	// The run open at b's end, if any: where its prefix starts (the
	// prefix's last byte is its type) and the slot of its last entry.
	inRun bool
	runAt mark
	prev  int
}

// splice is one wire of a frames, written where b[at] begins.
type splice struct {
	at   int
	wire []byte
}

// mark is a position in a frames: the length of b, the number of splices
// and their bytes up to it.
type mark struct{ at, splices, spliced int }

func (q *frames) mark() mark { return mark{len(q.b), len(q.splices), q.spliced} }

// len is the number of bytes queued: what the socket is handed.
func (q *frames) len() int { return len(q.b) + q.spliced }

// since is the number of bytes queued behind m.
func (q *frames) since(m mark) int { return q.len() - m.at - m.spliced }

// cut drops what was queued behind m.
func (q *frames) cut(m mark) {
	clear(q.splices[m.splices:])
	q.b, q.splices, q.spliced = q.b[:m.at], q.splices[:m.splices], m.spliced
}

// reset drops everything queued, an open run included, keeping the
// buffers.
func (q *frames) reset() {
	q.cut(mark{})
	q.n, q.inRun = 0, false
}

// wire appends w, or splices it at its place if it is at least flushBytes
// long.
//
//3lc:noalloc
func (q *frames) wire(w []byte) {
	if q.flat || len(w) < flushBytes {
		q.b = append(q.b, w...)
		return
	}
	q.splices = append(q.splices, splice{len(q.b), w})
	q.spliced += len(w)
}

// entry queues slot's wire on the run open at q's end, or opens a type-t
// run of fc's for step — prefix and header — if none is.
//
//3lc:noalloc
func (q *frames) entry(fc *frameCodec, t MsgType, step uint32, slot int, wire []byte) {
	q.openRun(fc, t, step)
	q.putEntry(q.prev, slot, wire)
	q.prev = slot
}

// endRun makes the run open on q — or a new, empty one for step — a
// type-t run: the frame that ends its stream.
//
//3lc:noalloc
func (q *frames) endRun(fc *frameCodec, t MsgType, step uint32) {
	q.openRun(fc, t, step)
	q.b[q.runAt.at+frameHeaderLen-1] = byte(t)
}

// openRun opens a type-t run for step behind the queued frames, unless one
// is open already.
//
//3lc:noalloc
func (q *frames) openRun(fc *frameCodec, t MsgType, step uint32) {
	if !q.inRun {
		q.inRun, q.runAt, q.prev = true, q.mark(), -1
		q.b = fc.appendHeader(beginFrame(q.b, t), t, step)
	}
}

// open is the number of bytes of the open run, 0 when none is.
func (q *frames) open() int {
	if !q.inRun {
		return 0
	}
	return q.since(q.runAt)
}

// closeRun closes the run open on q, if any, into a frame: fc's trailer,
// then the length prefix.
//
//3lc:noalloc
func (q *frames) closeRun(fc *frameCodec) error {
	if !q.inRun {
		return nil
	}
	q.inRun = false
	payload := q.runAt
	payload.at += frameHeaderLen
	fc.seal(q, MsgType(q.b[payload.at-1]), payload)
	return q.endFrame(q.runAt)
}

// putRuns appends wires, the k-th in slot k, as one stream of fc's type-t
// runs for step: a run is closed once flushBytes have gathered in it, and
// at the end.
//
//3lc:noalloc
func (q *frames) putRuns(fc *frameCodec, t MsgType, step uint32, wires [][]byte) error {
	for k, w := range wires {
		q.entry(fc, t, step, k, w)
		if q.open() >= flushBytes || k == len(wires)-1 {
			if err := q.closeRun(fc); err != nil {
				return err
			}
		}
	}
	return nil
}

// checksum is the CRC-32C of a type-t frame's payload that begins at m and
// runs to the end of q, spliced wires included.
//
//3lc:noalloc
func (q *frames) checksum(t MsgType, m mark) uint32 {
	crc, at := typeCRC[byte(t)], m.at
	for _, s := range q.splices[m.splices:] {
		crc = crc32.Update(crc32.Update(crc, castagnoli, q.b[at:s.at]), castagnoli, s.wire)
		at = s.at
	}
	return crc32.Update(crc, castagnoli, q.b[at:])
}

// segments appends q's segments to dst in socket order: the stretches of
// b between splice points, and the spliced wires.
//
//3lc:noalloc
func (q *frames) segments(dst net.Buffers) net.Buffers {
	at := 0
	for _, s := range q.splices {
		if s.at > at {
			dst = append(dst, q.b[at:s.at])
		}
		dst, at = append(dst, s.wire), s.at
	}
	if at < len(q.b) {
		dst = append(dst, q.b[at:])
	}
	return dst
}

// beginFrame reserves the prefix of a type-t frame at the end of dst; the
// payload is appended behind it and endFrame closes the frame.
func beginFrame(dst []byte, t MsgType) []byte {
	return append(dst, 0, 0, 0, 0, byte(t))
}

// endFrame back-patches the length of the frame begun at m — the one
// FrameReader.ReadFrame enforces: the encoded length n = 1+len(payload), spliced
// wires included, must satisfy 0 < n <= MaxFrameBytes, so every frame
// written is a frame ReadFrame accepts, and vice versa. A frame over the
// limit is cut off q again, before anything of it is written.
//
//3lc:noalloc
func (q *frames) endFrame(m mark) error {
	n := q.since(m) - 4
	if n > MaxFrameBytes {
		q.cut(m)
		return fmt.Errorf("transport: frame of %d bytes exceeds limit %d", n, MaxFrameBytes)
	}
	le.PutUint32(q.b[m.at:], uint32(n))
	q.n++
	return nil
}

// framePool recycles WriteFrame's coalescing buffers.
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

// WriteFrame writes one framed message to any writer — what tests and
// probes frame with; connections queue frames on their link instead.
// Prefix and (up to maxPooledFrame) payload are coalesced in a pooled
// buffer and issued as ONE Write call: on an unbuffered net.Conn that is
// one syscall and one TCP segment boundary instead of two. The header
// bytes are staged in the pooled buffer rather than a local array, which
// would escape through the io.Writer and cost one allocation per frame.
// The length is checked before anything is copied.
//
//3lc:noalloc
func WriteFrame(w io.Writer, t MsgType, payload []byte) error {
	if n := 1 + len(payload); n > MaxFrameBytes {
		return fmt.Errorf("transport: frame of %d bytes exceeds limit %d", n, MaxFrameBytes)
	}
	bp := framePool.Get().(*[]byte)
	buf := beginFrame((*bp)[:0], t)
	// A frame too big to pool goes out as two writes, prefix then payload:
	// copying a multi-MiB payload would cost more than the second call.
	large := frameHeaderLen+len(payload) > maxPooledFrame
	if !large {
		buf = append(buf, payload...)
	}
	le.PutUint32(buf, uint32(1+len(payload)))
	_, err := w.Write(buf)
	*bp = buf
	framePool.Put(bp)
	if large && err == nil {
		_, err = w.Write(payload)
	}
	return err
}

// FrameReader reads framed messages from one connection into buffers that
// are recycled: after the first few steps of a training run the receive
// path performs zero allocations. ReadFrame reads into the reader's own
// scratch; ReadFrameInto into a buffer its caller keeps — a run of a push
// or a pull, held until its whole stream has arrived.
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

// ReadFrame reads one framed message into the reader's scratch. The
// returned payload is valid until the next call.
//
//3lc:noalloc
//3lc:decode
func (fr *FrameReader) ReadFrame() (MsgType, []byte, error) {
	return fr.ReadFrameInto(&fr.buf)
}

// ReadFrameInto reads one framed message into *buf, which it grows (to the
// frame's length, exactly) when the frame does not fit. The returned
// payload aliases *buf.
//
//3lc:noalloc
//3lc:decode
func (fr *FrameReader) ReadFrameInto(buf *[]byte) (MsgType, []byte, error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		return 0, nil, err
	}
	n := le.Uint32(fr.hdr[:])
	if n == 0 || n > MaxFrameBytes {
		return 0, nil, fmt.Errorf("transport: bad frame length %d", n)
	}
	if cap(*buf) < int(n) {
		//3lc:allow noalloc grow-once buffer; steady state reuses *buf
		*buf = make([]byte, n)
	}
	b := (*buf)[:n]
	if _, err := io.ReadFull(fr.r, b); err != nil {
		return 0, nil, err
	}
	//3lc:allow nopanic n >= 1 enforced above and b is (*buf)[:n]
	return MsgType(b[0]), b[1:], nil
}

// AppendWireSet serializes a set of per-tensor wire messages: its count,
// then per wire its length and the wire.
//
//3lc:noalloc
func AppendWireSet(dst []byte, wires [][]byte) []byte {
	dst = le.AppendUint32(dst, uint32(len(wires)))
	for _, w := range wires {
		dst = le.AppendUint32(dst, uint32(len(w)))
		dst = append(dst, w...)
	}
	return dst
}

// ParseWireSetInto deserializes a wire set into dst's backing storage
// (grown only when the tensor count exceeds its capacity; nil to allocate),
// so a connection loop parsing one wire set per step reuses the same slice
// header array. It returns the wires, aliasing src, and the number of bytes
// consumed.
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
