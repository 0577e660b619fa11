package transport

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"testing"
)

// writeCounter counts Write calls to verify frame coalescing, keeping the
// bytes only when asked to (the allocation row must not measure a
// growing buffer).
type writeCounter struct {
	bytes.Buffer
	calls   int
	discard bool
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.calls++
	if w.discard {
		return len(p), nil
	}
	return w.Buffer.Write(p)
}

// TestWriteFrameSingleWrite pins the coalescing behavior: a frame up to
// maxPooledFrame is one Write call — on an unbuffered connection one
// syscall instead of a header+payload pair — a larger one is prefix then
// payload, uncopied, and neither allocates: the prefix is staged in the
// pooled buffer, not in a local array that escapes through the io.Writer
// (under the race detector the pool drops Puts on purpose, so the count is
// not asserted there). What a connection writes is the link's business:
// TestLinkWritesPerFlush.
func TestWriteFrameSingleWrite(t *testing.T) {
	for _, tc := range []struct {
		name  string
		size  int
		calls int
	}{
		{"coalesced", 1000, 1},
		{"large", 2 << 20, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var w writeCounter
			payload := make([]byte, tc.size)
			if err := WriteFrame(&w, MsgPush, payload); err != nil {
				t.Fatal(err)
			}
			if w.calls != tc.calls {
				t.Errorf("WriteFrame issued %d Write calls, want %d", w.calls, tc.calls)
			}
			typ, got, err := NewFrameReader(&w.Buffer).ReadFrame()
			if err != nil {
				t.Fatal(err)
			}
			if typ != MsgPush || len(got) != len(payload) {
				t.Errorf("round trip: type %d, %d bytes", typ, len(got))
			}
			w.discard = true
			if allocs := testing.AllocsPerRun(20, func() { WriteFrame(&w, MsgPush, payload) }); allocs != 0 && !raceDetector {
				t.Errorf("WriteFrame of %d bytes: %v allocs per frame, want 0", tc.size, allocs)
			}
		})
	}
}

// TestWriteFrameLimitMatchesReadFrame checks both directions enforce the
// same bound: a frame WriteFrame accepts must be readable, and a frame one
// byte over the limit must be rejected by both.
func TestWriteFrameLimitMatchesReadFrame(t *testing.T) {
	// Exactly at the limit: payload of MaxFrameBytes-1 encodes to n ==
	// MaxFrameBytes, which ReadFrame accepts.
	var buf bytes.Buffer
	atLimit := make([]byte, MaxFrameBytes-1)
	if err := WriteFrame(&buf, MsgPush, atLimit); err != nil {
		t.Fatalf("frame at limit rejected by WriteFrame: %v", err)
	}
	if _, _, err := NewFrameReader(&buf).ReadFrame(); err != nil {
		t.Fatalf("frame at limit rejected by ReadFrame: %v", err)
	}
	// One byte over: rejected by the writer (and unrepresentable to the
	// reader, which bounds n the same way).
	if err := WriteFrame(&buf, MsgPush, make([]byte, MaxFrameBytes)); err == nil {
		t.Error("oversized frame accepted by WriteFrame")
	}
}

// TestFrameReaderReusesScratch pins the per-connection reuse contract:
// payloads alias one scratch buffer, so a second read overwrites the
// first's bytes (callers must consume before reading again).
func TestFrameReaderReusesScratch(t *testing.T) {
	var buf bytes.Buffer
	WriteFrame(&buf, MsgPush, []byte{1, 1, 1, 1})
	WriteFrame(&buf, MsgShardPullRun, []byte{2, 2, 2, 2})
	fr := NewFrameReader(&buf)
	_, first, err := fr.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if first[0] != 1 {
		t.Fatalf("first payload %v", first)
	}
	_, second, err := fr.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if second[0] != 2 {
		t.Fatalf("second payload %v", second)
	}
	if &first[0] != &second[0] {
		t.Error("scratch buffer not reused between equal-size frames")
	}
}

func TestParseWireSetIntoReuse(t *testing.T) {
	wires := [][]byte{{1, 2, 3}, nil, {4, 5}}
	enc := AppendWireSet(nil, wires)
	scratch := make([][]byte, 0, 8)
	dec, n, err := ParseWireSetInto(scratch, enc)
	if err != nil || n != len(enc) {
		t.Fatalf("parse: %v, consumed %d of %d", err, n, len(enc))
	}
	if len(dec) != 3 || dec[1] != nil || !bytes.Equal(dec[0], []byte{1, 2, 3}) || !bytes.Equal(dec[2], []byte{4, 5}) {
		t.Fatalf("content: %v", dec)
	}
	if cap(dec) != cap(scratch) {
		t.Error("scratch backing array not reused")
	}
	// A stale longer scratch must not leak old entries.
	stale := [][]byte{{9}, {9}, {9}, {9}}
	enc2 := AppendWireSet(nil, [][]byte{nil, {7}})
	dec2, _, err := ParseWireSetInto(stale, enc2)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec2) != 2 || dec2[0] != nil || !bytes.Equal(dec2[1], []byte{7}) {
		t.Fatalf("stale scratch leaked: %v", dec2)
	}
}

// TestRetiredTypeBytesStayReserved: type bytes 1–3 were the v1 layout's
// hello, push and pull, 5 and 6 the whole-set push and pull, 7–9 streamed
// a frame per tensor up to shard wire version 3, and 10 and 11 belonged to
// the primary→replica forwarding link. None is handed out again — a peer
// of those generations must be refused, not misread — so the hello keeps
// 4, the bye 12 and the runs 13–15; a frame of a reserved type is refused
// as an unexpected type by the one parse entry both ends read through
// (parseFrame: a server reading a push, a worker reading a pull) and as a
// hello, and a hello of version 3 or older as an unsupported version.
func TestRetiredTypeBytesStayReserved(t *testing.T) {
	if MsgPush != 2 || MsgShardHello != 4 {
		t.Fatalf("MsgPush = %d, hello %d, want 2 and 4", MsgPush, MsgShardHello)
	}
	if MsgShardBye != 12 || MsgShardPushRun != 13 || MsgShardPushLast != 14 || MsgShardPullRun != 15 {
		t.Fatalf("MsgShardBye = %d, runs %d %d %d, want 12 and 13–15", MsgShardBye, MsgShardPushRun, MsgShardPushLast, MsgShardPullRun)
	}
	for _, typ := range []MsgType{1, 2, 3, 5, 6, 7, 8, 9, 10, 11} {
		_, _, err := parseHello(typ, nil)
		if want := fmt.Sprintf("transport: expected hello, got type %d", typ); err == nil || err.Error() != want {
			t.Errorf("type-%d hello: %v, want %q", typ, err, want)
		}
		for _, fc := range []frameCodec{{}, {resilient: true}} {
			_, err = fc.parseFrame(typ, AppendShardHeader(nil, ShardHeader{Version: ShardWireVersion}), 0, true)
			if want := fmt.Sprintf("transport: unexpected type-%d frame of 12 bytes", typ); err == nil || err.Error() != want {
				t.Errorf("type-%d frame on %+v: %v, want %q", typ, fc, err, want)
			}
		}
	}
	for v := byte(0); v <= 3; v++ {
		hello := le.AppendUint32(AppendShardHeader(nil, ShardHeader{Version: v}), 0)
		_, _, err := parseHello(MsgShardHello, hello)
		if want := fmt.Sprintf("transport: unsupported shard wire version %d (have 5)", v); err == nil || err.Error() != want {
			t.Errorf("version-%d hello: %v, want %q", v, err, want)
		}
	}
}

// TestOwnerGradientHelloRefused: a version-4 peer's owner pushed its
// batch-norm gradient for the server to step, where this build's owner
// pushes its update and the server relays it. A version-4 server would
// step the update as if it were a gradient, so a version-4 hello, and a
// frame with a version-4 header, are refused as an unsupported version.
func TestOwnerGradientHelloRefused(t *testing.T) {
	const want = "transport: unsupported shard wire version 4 (have 5)"
	hello := le.AppendUint32(AppendShardHeader(nil, ShardHeader{Version: 4}), 0)
	if _, _, err := parseHello(MsgShardHello, hello); err == nil || err.Error() != want {
		t.Errorf("version-4 hello: %v, want %q", err, want)
	}
	push := AppendShardHeader(nil, ShardHeader{Version: 4, Worker: 1, Step: 3})
	if _, err := (&frameCodec{}).parseFrame(MsgShardPushRun, push, 0, true); err == nil || err.Error() != want {
		t.Errorf("version-4 push: %v, want %q", err, want)
	}
}

// TestHelloIsPlainOrResilient: a hello's flags are 0 or
// FlagChecksum|FlagResilient. A checksum-only hello — a contract of its own
// before the trailer became the resilient connection's — and a resilient
// hello without the trailer are refused, each well formed otherwise (the
// checksum-only one under a valid trailer).
func TestHelloIsPlainOrResilient(t *testing.T) {
	hello := func(flags byte) []byte {
		p := le.AppendUint32(AppendShardHeader(nil, ShardHeader{Version: ShardWireVersion, Flags: flags, Shard: 3, Worker: 2}), 0xfeed)
		if flags&FlagChecksum != 0 {
			p = le.AppendUint32(p, frameChecksum(MsgShardHello, p))
		}
		return p
	}
	for _, flags := range []byte{FlagChecksum, FlagResilient} {
		want := fmt.Sprintf("transport: shard hello flags %#x: a connection is plain (0) or resilient (0xc)", flags)
		if _, _, err := parseHello(MsgShardHello, hello(flags)); err == nil || err.Error() != want {
			t.Errorf("hello flags %#02x: %v, want %q", flags, err, want)
		}
	}
	for _, c := range []struct {
		flags byte
		want  frameCodec
	}{
		{0, frameCodec{shard: 3, worker: 2}},
		{FlagChecksum | FlagResilient, frameCodec{shard: 3, worker: 2, resilient: true}},
	} {
		fc, hash, err := parseHello(MsgShardHello, hello(c.flags))
		if err != nil || fc != c.want || hash != 0xfeed {
			t.Errorf("hello flags %#02x: %+v, hash %#x (%v), want %+v", c.flags, fc, hash, err, c.want)
		}
	}
}

// streamFrames is what a connection of fc's queues for wires as one
// stream of type-t runs at step 7 (frames.putRuns), ended, for a push, by
// its last run.
func streamFrames(t *testing.T, fc frameCodec, typ MsgType, wires [][]byte) []byte {
	t.Helper()
	q := frames{flat: true}
	if err := q.putRuns(&fc, typ, 7, wires); err != nil {
		t.Fatal(err)
	}
	return q.b
}

// TestPlainFramesMatchLayout pins the frames of a connection that
// negotiates nothing to the layout the package comment documents: hello =
// header + placement hash, a push's run = header + entries, a pull's the
// same with worker 0, bye = header.
func TestPlainFramesMatchLayout(t *testing.T) {
	fc := frameCodec{shard: 3, worker: 2}
	set := [][]byte{{1, 2, 3}, nil, {4}}
	entries := appendEntry(appendEntry(appendEntry(nil, -1, 0, set[0]), 0, 1, set[1]), 1, 2, set[2])
	hello, _ := fc.appendFrame(nil, frame{t: MsgShardHello, arg: 0xfeed})
	bye, _ := fc.appendFrame(nil, frame{t: MsgShardBye})
	for _, c := range []struct {
		t         MsgType
		got, want []byte
	}{
		{MsgShardHello, hello, le.AppendUint32(AppendShardHeader(nil, ShardHeader{Version: ShardWireVersion, Shard: 3, Worker: 2}), 0xfeed)},
		{MsgShardPushRun, streamFrames(t, fc, MsgShardPushRun, set), append(AppendShardHeader(nil, ShardHeader{Version: ShardWireVersion, Shard: 3, Worker: 2, Step: 7}), entries...)},
		{MsgShardPullRun, streamFrames(t, fc, MsgShardPullRun, set), append(AppendShardHeader(nil, ShardHeader{Version: ShardWireVersion, Shard: 3, Step: 7}), entries...)},
		{MsgShardBye, bye, AppendShardHeader(nil, ShardHeader{Version: ShardWireVersion, Shard: 3, Worker: 2})},
	} {
		var want bytes.Buffer
		if err := WriteFrame(&want, c.t, c.want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(c.got, want.Bytes()) {
			t.Errorf("type-%d frame %x, want %x", c.t, c.got, want.Bytes())
		}
	}
}

// TestResilientFramesMatchLayout pins a resilient connection's frames:
// the plain layout with FlagChecksum in every header — FlagChecksum and
// FlagResilient in the hello's — and a CRC-32C (Castagnoli) trailer over
// the type byte and the payload ending every frame, the bye and the runs
// included.
func TestResilientFramesMatchLayout(t *testing.T) {
	fc := frameCodec{shard: 3, worker: 2, resilient: true}
	set := [][]byte{{1, 2, 3}, nil, {4}}
	run := appendEntry(appendEntry(nil, -1, 0, set[0]), 0, 2, set[2])
	all := appendEntry(appendEntry(appendEntry(nil, -1, 0, set[0]), 0, 1, set[1]), 1, 2, set[2])
	hdr := func(flags byte, worker, step uint32) []byte {
		return AppendShardHeader(nil, ShardHeader{Version: ShardWireVersion, Flags: flags, Shard: 3, Worker: worker, Step: step})
	}
	frameOf := func(f frame) []byte {
		b, err := fc.appendFrame(nil, f)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, c := range []struct {
		t            MsgType
		got, payload []byte
	}{
		{MsgShardHello, frameOf(frame{t: MsgShardHello, arg: 0xfeed}), le.AppendUint32(hdr(FlagChecksum|FlagResilient, 2, 0), 0xfeed)},
		{MsgShardPushRun, streamFrames(t, fc, MsgShardPushRun, set), append(hdr(FlagChecksum, 2, 7), all...)},
		{MsgShardPullRun, streamFrames(t, fc, MsgShardPullRun, set), append(hdr(FlagChecksum, 0, 7), all...)},
		{MsgShardPushLast, frameOf(frame{t: MsgShardPushLast, step: 7, body: run}), append(hdr(FlagChecksum, 2, 7), run...)},
		{MsgShardBye, frameOf(frame{t: MsgShardBye}), hdr(FlagChecksum, 2, 0)},
	} {
		crc := crc32.Checksum(append([]byte{byte(c.t)}, c.payload...), crc32.MakeTable(crc32.Castagnoli))
		var want bytes.Buffer
		if err := WriteFrame(&want, c.t, le.AppendUint32(c.payload, crc)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(c.got, want.Bytes()) {
			t.Errorf("type-%d frame %x, want %x", c.t, c.got, want.Bytes())
		}
	}
}

// TestHeaderFlagsPinned pins every shard header flag bit, the reserved ones
// included: a flag deleted from the set must leave its bit reserved, or a
// peer built before the deletion is misread instead of refused. The
// reserved bits — 0x01, the retired tenant tag, 0x02, the entropy stage,
// and 0x10, the standby seat — are refused as unknown flags, by the header
// parser and on a connection's frames.
func TestHeaderFlagsPinned(t *testing.T) {
	if FlagChecksum != 0x04 || FlagResilient != 0x08 {
		t.Errorf("FlagChecksum = %#02x, FlagResilient = %#02x, want 0x04 and 0x08", FlagChecksum, FlagResilient)
	}
	for _, flag := range []byte{0x01, 0x02, 0x10} {
		want := fmt.Sprintf("transport: unknown shard header flags %#x", flag)
		h := AppendShardHeader(nil, ShardHeader{Version: ShardWireVersion, Flags: flag})
		if _, _, err := ParseShardHeader(h); err == nil || err.Error() != want {
			t.Errorf("flag %#02x header: %v, want %q", flag, err, want)
		}
		push := appendEntry(h, -1, 0, []byte{1, 2, 3})
		if _, err := (&frameCodec{}).parseFrame(MsgShardPushRun, push, 0, false); err == nil || err.Error() != want {
			t.Errorf("flag %#02x push: %v, want %q", flag, err, want)
		}
	}
}

// TestEntropyHelloRejections: a hello that still asks for the retired
// entropy stage with a fifth byte after the placement hash — Huffman, LZ,
// or a stage id that never existed — is refused for its trailing byte.
func TestEntropyHelloRejections(t *testing.T) {
	const want = "transport: shard hello has 5 trailing bytes, want 4"
	for _, c := range []struct {
		name  string
		stage byte
	}{{"huffman", 1}, {"lz", 2}, {"unknown stage byte", 0x7f}} {
		t.Run(c.name, func(t *testing.T) {
			hello := append(le.AppendUint32(AppendShardHeader(nil, ShardHeader{Version: ShardWireVersion}), 0xfeed), c.stage)
			if _, _, err := parseHello(MsgShardHello, hello); err == nil || err.Error() != want {
				t.Errorf("hello asking for stage %d: %v, want %q", c.stage, err, want)
			}
		})
	}
}
