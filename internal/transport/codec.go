// The frame codec: what a connection's hello negotiated (its addressing,
// and whether it is plain or resilient) and the two operations every
// endpoint — ShardServer, ShardClient, the unplaced Client — puts frames
// on and takes frames off the wire with. Stage order is fixed (see the
// package comment in shard.go): header → body → on a resilient connection
// the CRC-32C trailer last, so the checksum covers exactly what is on the
// wire. Retired wire values stay reserved (the table below
// ShardWireVersion).
package transport

import (
	"encoding/binary"
	"fmt"
)

// ShardWireVersion is the current sharded wire-format generation. The
// version byte leads every shard header: an incompatible layout change
// must bump it, and receivers reject versions (and flag bits) they do not
// know instead of misparsing. Version 3 sent the owner the empty wire in
// its owner-only slots (ps.Pulls), which a version-2 owner would add as
// zero and keep its stale batch-norm weights; version 4 streams a run of
// tensors per flush where version 3 sent a frame per tensor; in version 5
// the owner pushes the update of its owner-only tensors, which the server
// relays, where version 4 pushed their gradient for the server to step — a
// version-4 server would step an update as if it were a gradient, a
// version-4 owner's gradient would be relayed as its update. Every other
// version is refused at the hello.
const ShardWireVersion = 5

// Reserved values. Each once named a wire feature that is gone; none may
// be reissued, or a peer built before the deletion is misread instead of
// refused. The generic checks refuse them all: a version other than
// ShardWireVersion, a header flag outside FlagChecksum|FlagResilient, a
// type byte no frame of the connection has, a hello tail that is not the
// four-byte placement hash.
//
//	versions ≤ 4   older layouts (see ShardWireVersion)
//	types 1–3      the v1 layout, a single server's hello, push and pull
//	               without a shard header (MsgPush, frame.go)
//	types 5–6      a whole-set push and pull: a shard header, then a wire
//	               set (frame.go), up to shard wire version 5
//	flag 0x01      a job tag addressing one job of a multi-job shard tier
//	flag 0x02      a Huffman or LZ stage over whole-set bodies, negotiated by
//	               a fifth hello byte after the placement hash
//	flag 0x10      a worker's second connection, to a standby shard server
//	types 7–9      a frame per streamed tensor (push tensor, end of push,
//	               pull tensor), up to version 3
//	types 10–11    a primary's forwarding link to its replica

// ShardHeaderLen is the encoded size of a ShardHeader.
const ShardHeaderLen = 12

// ShardHeader addresses one v2 frame: which shard, which worker, which
// step. Hello frames reuse the layout with Step zero and append the 4-byte
// placement hash after the header.
type ShardHeader struct {
	Version byte
	Flags   byte
	Shard   uint16
	Worker  uint32
	Step    uint32
}

// AppendShardHeader appends h in wire order.
func AppendShardHeader(dst []byte, h ShardHeader) []byte {
	var b [ShardHeaderLen]byte
	b[0] = h.Version
	b[1] = h.Flags
	le.PutUint16(b[2:], h.Shard)
	le.PutUint32(b[4:], h.Worker)
	le.PutUint32(b[8:], h.Step)
	return append(dst, b[:]...)
}

// ParseShardHeader decodes and validates a shard header, returning the
// remaining payload. Unknown versions and flag bits are errors — the
// forward-compatibility contract that lets the layout evolve behind the
// version byte.
func ParseShardHeader(src []byte) (ShardHeader, []byte, error) {
	if len(src) < ShardHeaderLen {
		return ShardHeader{}, nil, fmt.Errorf("transport: short shard header (%d bytes)", len(src))
	}
	h := ShardHeader{
		Version: src[0],
		Flags:   src[1],
		Shard:   le.Uint16(src[2:]),
		Worker:  le.Uint32(src[4:]),
		Step:    le.Uint32(src[8:]),
	}
	if h.Version != ShardWireVersion {
		return ShardHeader{}, nil, fmt.Errorf("transport: unsupported shard wire version %d (have %d)", h.Version, ShardWireVersion)
	}
	if h.Flags&^(FlagChecksum|FlagResilient) != 0 {
		return ShardHeader{}, nil, fmt.Errorf("transport: unknown shard header flags %#x", h.Flags)
	}
	return h, src[ShardHeaderLen:], nil
}

// frame is one message in codec terms: what a sender hands putFrame and
// what parseFrame hands a receiver. The frame type decides which fields
// are on the wire: hello — arg (the placement hash); a run — body (its
// entry table, see frames.putEntry); bye — the header alone.
type frame struct {
	t      MsgType
	worker uint32 // parse only: senders' ids are the codec's
	step   uint32 // zero on hello and bye
	arg    uint32 // placement hash (hello)
	body   []byte // a run's entry table
	raw    []byte // parse only: the payload as it arrived (what is counted)
}

// isRun reports the frame types of a push or a pull, whose body is an
// entry table.
func isRun(t MsgType) bool {
	return t == MsgShardPushRun || t == MsgShardPushLast || t == MsgShardPullRun
}

// pushSide reports the frame types a worker sends after its hello; their
// headers carry the worker's id, where pull-side headers carry zero.
func pushSide(t MsgType) bool {
	return t == MsgShardPushRun || t == MsgShardPushLast || t == MsgShardBye
}

// frameCodec is one connection's contract — what its hello negotiated.
// Both ends of a connection hold an equal one. A connection is plain or
// resilient: a plain one (the zero value but for its addressing) emits and
// accepts the layout of the package comment exactly; a resilient one ends
// every frame, hello included, in the CRC-32C trailer (FlagChecksum on
// every header) and may be re-dialed and replayed (FlagResilient on the
// hello).
type frameCodec struct {
	shard     uint16 // addressing, fixed for the connection's lifetime
	worker    uint32
	resilient bool // trailer on every frame; the client may re-dial and replay
}

// putFrame appends f to q as it travels: prefix, header, body and, on a
// resilient connection, the trailer. Runs that a link or a session
// streams are built in q entry by entry instead (frames.entry).
func (fc *frameCodec) putFrame(q *frames, f frame) error {
	m := q.mark()
	q.b = beginFrame(q.b, f.t)
	p := q.mark()
	q.b = fc.appendHeader(q.b, f.t, f.step)
	if f.t == MsgShardHello {
		q.b = le.AppendUint32(q.b, f.arg)
	}
	q.b = append(q.b, f.body...)
	fc.seal(q, f.t, p)
	return q.endFrame(m)
}

// appendHeader appends the shard header a type-t frame of this connection
// opens with.
//
//3lc:noalloc
func (fc *frameCodec) appendHeader(dst []byte, t MsgType, step uint32) []byte {
	h := ShardHeader{Version: ShardWireVersion, Shard: fc.shard, Step: step}
	hello := t == MsgShardHello
	if pushSide(t) || hello {
		h.Worker = fc.worker
	}
	if fc.resilient {
		h.Flags |= FlagChecksum
		if hello {
			h.Flags |= FlagResilient
		}
	}
	return AppendShardHeader(dst, h)
}

// seal ends the type-t payload that begins at m: on a resilient
// connection, the CRC-32C trailer over everything queued behind m, spliced
// wires included.
//
//3lc:noalloc
func (fc *frameCodec) seal(q *frames, t MsgType, m mark) {
	if fc.resilient {
		q.b = le.AppendUint32(q.b, q.checksum(t, m))
	}
}

// parseFrame is putFrame's inverse and the single entry every
// post-hello frame is validated through: trailer, flags against the
// negotiated set, addressing (shard, and on push-side
// frames the worker) and position. step is where the receiver stands;
// with replay set, a push one step behind is let through (f.step tells
// the caller) — a resilient redial's replay. Bye
// carries no step.
// The returned body aliases payload.
//
//3lc:noalloc
//3lc:decode
func (fc *frameCodec) parseFrame(t MsgType, payload []byte, step int, replay bool) (frame, error) {
	f := frame{t: t, raw: payload}
	if !isRun(t) && t != MsgShardBye {
		return f, fmt.Errorf("transport: unexpected type-%d frame of %d bytes", t, len(payload))
	}
	if fc.resilient {
		var err error
		if payload, err = verifyChecksum(t, payload); err != nil {
			return f, err
		}
	}
	h, rest, err := ParseShardHeader(payload)
	if err != nil {
		return f, err
	}
	var want byte
	if fc.resilient {
		want = FlagChecksum
	}
	if h.Flags != want {
		return f, fmt.Errorf("transport: type-%d frame flags %#x on a connection that negotiated %#x", t, h.Flags, want)
	}
	if h.Shard != fc.shard {
		return f, fmt.Errorf("transport: frame for shard %d on a connection to shard %d", h.Shard, fc.shard)
	}
	f.worker, f.step = h.Worker, h.Step
	if t == MsgShardBye && len(rest) != 0 {
		return f, fmt.Errorf("transport: type-%d frame carries %d trailing bytes", t, len(rest))
	}
	f.body = rest
	if pushSide(t) && f.worker != fc.worker {
		return f, fmt.Errorf("transport: push id %d on worker %d's connection", f.worker, fc.worker)
	}
	if t != MsgShardBye && int(f.step) != step && !(replay && pushSide(t) && int(f.step)+1 == step) {
		return f, fmt.Errorf("transport: worker %d: type-%d frame for step %d during step %d (barrier violation)", f.worker, t, f.step, step)
	}
	return f, nil
}

// parseHello turns the first frame of a connection into the codec the
// rest of it is held to, plus the placement hash the hello vouches for.
// What the endpoint makes of the claimed identity is
// ShardServerConfig.admit's business.
//
//3lc:decode
func parseHello(t MsgType, payload []byte) (fc frameCodec, hash uint32, err error) {
	if t != MsgShardHello {
		return fc, 0, fmt.Errorf("transport: expected hello, got type %d", t)
	}
	if len(payload) >= 2 && payload[1]&FlagChecksum != 0 {
		// The hello itself carries the trailer, and the flag byte is under
		// the CRC, so a hello whose flag bit (or anything else) flipped in
		// flight fails here instead of negotiating a corrupted contract. A
		// bit that flipped OFF leaves a 4-byte-longer tail the length check
		// below rejects.
		if payload, err = verifyChecksum(t, payload); err != nil {
			return fc, 0, err
		}
	}
	h, rest, err := ParseShardHeader(payload)
	if err != nil {
		return fc, 0, err
	}
	switch h.Flags {
	case 0:
	case FlagChecksum | FlagResilient:
		fc.resilient = true
	default:
		return fc, 0, fmt.Errorf("transport: shard hello flags %#x: a connection is plain (0) or resilient (%#x)", h.Flags, FlagChecksum|FlagResilient)
	}
	if len(rest) != 4 {
		return fc, 0, fmt.Errorf("transport: shard hello has %d trailing bytes, want 4", len(rest))
	}
	fc.shard, fc.worker = h.Shard, h.Worker
	return fc, le.Uint32(rest), nil
}

// A run's body is its entry table, one entry per tensor in the order the
// sender queued them:
//
//	entry := [uvarint zigzag(slot − prev − 1)][uvarint len][len bytes of wire]
//
// prev is the slot of the run's previous entry, −1 before its first, so a
// run of ascending slots spells each in one byte. Varints are canonical —
// no zero byte padding one out — so an entry table has one spelling.

// putEntry appends the entry of slot's wire behind an entry for slot prev,
// the wire spliced if it is long (wire).
//
//3lc:noalloc
func (q *frames) putEntry(prev, slot int, wire []byte) {
	d := int64(slot - prev - 1)
	q.b = binary.AppendUvarint(q.b, uint64(d<<1^d>>63))
	q.b = binary.AppendUvarint(q.b, uint64(len(wire)))
	q.wire(wire)
}

// uvarint decodes the canonical uvarint at the front of b and the number
// of bytes it took.
//
//3lc:noalloc
//3lc:decode
func uvarint(b []byte) (uint64, int, error) {
	x, k := binary.Uvarint(b)
	switch {
	case k == 0:
		return 0, 0, fmt.Errorf("varint truncated (%d bytes left)", len(b))
	case k < 0:
		return 0, 0, fmt.Errorf("varint overflows 64 bits")
	case k > 1 && b[k-1] == 0:
		return 0, 0, fmt.Errorf("varint padded to %d bytes", k)
	}
	return x, k, nil
}

// parseEntry decodes the entry at the front of a run body, behind an entry
// for slot prev, in a stream of n slots: its slot, its wire (aliasing
// body) and the rest of the body.
//
//3lc:noalloc
//3lc:decode
func parseEntry(body []byte, prev, n int) (slot int, wire, rest []byte, err error) {
	z, k, err := uvarint(body)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("transport: run entry behind slot %d: slot delta %w", prev, err)
	}
	d := int64(z>>1) ^ -int64(z&1)
	if d < -int64(prev)-1 || d >= int64(n-prev-1) {
		return 0, nil, nil, fmt.Errorf("transport: run entry behind slot %d: slot delta %d out of range (%d slots)", prev, d, n)
	}
	slot = prev + 1 + int(d)
	//3lc:allow nopanic uvarint read k bytes of body
	l, m, err := uvarint(body[k:])
	if err != nil {
		return 0, nil, nil, fmt.Errorf("transport: run entry for slot %d: length %w", slot, err)
	}
	//3lc:allow nopanic uvarint read k+m bytes of body
	rest = body[k+m:]
	if l > uint64(len(rest)) {
		return 0, nil, nil, fmt.Errorf("transport: run entry for slot %d: %d-byte wire past the end of the run (%d bytes left)", slot, l, len(rest))
	}
	return slot, rest[:l], rest[l:], nil
}

// maxSlots bounds the slots a stream whose receiver does not know its
// tensor count may address (a server's push: its aggregator holds the
// count to the model's).
const maxSlots = 1 << 20

// seq is one stream of runs as it is received: each run read whole into a
// buffer of its own, recycled across streams, and the stream's wires by
// slot, aliasing those buffers. A receiver takes every run of the stream
// before it applies any of it, so a stream that fails or is cut off
// applies nothing.
type seq struct {
	bufs  [][]byte // bufs[k] holds the stream's k-th run
	runs  int      // runs read into bufs
	got   int      // entries taken
	wires [][]byte // by slot; nil where no entry has arrived
}

// reset begins a new stream.
//
//3lc:noalloc
func (q *seq) reset() {
	q.runs, q.got, q.wires = 0, 0, q.wires[:0]
}

// next returns the buffer the stream's next run is read into.
//
//3lc:noalloc
func (q *seq) next() *[]byte {
	if q.runs == len(q.bufs) {
		q.bufs = append(q.bufs, nil)
	}
	q.runs++
	return &q.bufs[q.runs-1]
}

// take validates the entry table of one run of the stream — canonical
// varints, lengths within the body, slots under n and not taken before in
// this run or an earlier one — and records its wires. A taken slot's wire
// is never nil, even when it is empty: it is a slice of the run's body.
//
//3lc:noalloc
//3lc:decode
func (q *seq) take(body []byte, n int) error {
	for prev, rest := -1, body; len(rest) > 0; q.got++ {
		slot, wire, next, err := parseEntry(rest, prev, n)
		if err != nil {
			return err
		}
		for len(q.wires) <= slot {
			q.wires = append(q.wires, nil)
		}
		if q.wires[slot] != nil {
			return fmt.Errorf("transport: run entry %d: duplicate slot %d", q.got, slot)
		}
		q.wires[slot] = wire
		prev, rest = slot, next
	}
	return nil
}
