package transport

import (
	"bytes"
	"io"
	"testing"
	"testing/iotest"
)

// FuzzParseWireSet feeds arbitrary bytes to the wire-set parser: it must
// never panic, and anything it accepts must re-serialize to exactly the
// bytes it consumed (parse∘append = identity on the accepted prefix).
func FuzzParseWireSet(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendWireSet(nil, [][]byte{{1, 2, 3}, nil, {}, {0xff}}))
	f.Add(AppendWireSet(nil, nil))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		wires, n, err := ParseWireSetInto(nil, data)
		if err != nil {
			return
		}
		if n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		re := AppendWireSet(nil, wires)
		if !bytes.Equal(re, data[:n]) {
			t.Fatalf("re-serialization differs: %x vs %x", re, data[:n])
		}
	})
}

// retiredEntropyFrames spell the retired entropy stage: a hello asking for
// it with a fifth byte after the placement hash, and a push under its
// header flag, the reserved 0x02.
func retiredEntropyFrames() (hello, push []byte) {
	h := ShardHeader{Version: ShardWireVersion, Shard: 3, Worker: 2}
	hello = append(le.AppendUint32(AppendShardHeader(nil, h), 0xfeed), 1)
	h.Flags, h.Step = 0x02, 7
	return hello, AppendWireSet(AppendShardHeader(nil, h), [][]byte{{1, 2, 3}})
}

// sealedRetired is fc's type-t frame with a reserved header flag set,
// sealed under fc's trailer, so the refusal — not the checksum — is what
// rejects it.
func sealedRetired(fc frameCodec, t MsgType, flag byte) []byte {
	fr := frame{t: t, arg: 0xfeed, set: [][]byte{{1, 2, 3}}}
	if t != MsgShardHello {
		fr.step = 7
	}
	p := fc.appendPayload(nil, fr)
	if fc.resilient {
		p = p[:len(p)-4]
	}
	p[1] |= flag
	q := frames{b: p, flat: true}
	fc.seal(&q, t, mark{})
	return q.b
}

// fuzzTypes are the frame types parseFrame takes on a v2 connection.
var fuzzTypes = []MsgType{MsgShardPush, MsgShardPull, MsgShardPushRun, MsgShardPushLast,
	MsgShardPullRun, MsgShardBye}

// fuzzCodec maps sub's low bit to what a hello negotiates: a plain or a
// resilient connection (the trailer on every frame).
func fuzzCodec(sub byte) frameCodec {
	return frameCodec{shard: 3, worker: 2, resilient: sub&1 != 0}
}

// fuzzRoundTrip appends one well-formed frame at step 7 through the
// sender's codec, parses it back through an equal receiving codec, checks
// every field survived, and returns the payload that crossed.
func fuzzRoundTrip(t *testing.T, sub byte, typ MsgType, body []byte) []byte {
	t.Helper()
	tx, rx := fuzzCodec(sub), fuzzCodec(sub)
	fr := frame{t: typ, step: 7, body: body, set: [][]byte{body}}
	wire := tx.appendPayload(nil, fr)
	f, err := rx.parseFrame(typ, wire, 7, false)
	if err != nil {
		t.Fatalf("subset %#x type %d: well-formed frame rejected: %v", sub, typ, err)
	}
	wantWorker := uint32(0) // pull-side headers carry no worker
	if pushSide(typ) {
		wantWorker = tx.worker
	}
	if f.worker != wantWorker {
		t.Fatalf("subset %#x type %d: worker %d, want %d", sub, typ, f.worker, wantWorker)
	}
	switch {
	case typ == MsgShardBye:
	case f.step != 7:
		t.Fatalf("subset %#x type %d: step %d, want 7", sub, typ, f.step)
	case wholeSet(typ):
		set, n, err := ParseWireSetInto(nil, f.body)
		if err != nil || n != len(f.body) || len(set) != 1 || !bytes.Equal(set[0], body) {
			t.Fatalf("subset %#x type %d: wire set did not round-trip (%v)", sub, typ, err)
		}
	case isRun(typ):
		if !bytes.Equal(f.body, body) {
			t.Fatalf("subset %#x type %d: run body %x, want %x", sub, typ, f.body, body)
		}
	case len(f.body) != 0:
		t.Fatalf("subset %#x type %d: bare frame parsed a %d-byte body", sub, typ, len(f.body))
	}
	// The same frame as a link flushes it — twice behind its own prefix,
	// one coalesced write — cut into the smallest reads there are: the
	// reader must hand back the payload that parsed above, both times.
	run, err := tx.appendFrame(nil, fr)
	if err == nil {
		run, err = tx.appendFrame(run, fr)
	}
	if err != nil {
		t.Fatalf("subset %#x type %d: appendFrame: %v", sub, typ, err)
	}
	types, payloads, err := readAll(iotest.OneByteReader(bytes.NewReader(run)))
	if err != io.EOF || len(types) != 2 {
		t.Fatalf("subset %#x type %d: coalesced pair read back as %d frames, then %v", sub, typ, len(types), err)
	}
	for k := range types {
		if types[k] != typ || !bytes.Equal(payloads[k], wire) {
			t.Fatalf("subset %#x type %d: frame %d of a coalesced pair differs from the frame alone", sub, typ, k)
		}
	}
	return wire
}

// FuzzShardHeader drives the single parse entry, frameCodec.parseFrame,
// and the hello parser with arbitrary bytes on a plain and a resilient
// connection: no panics, nothing accepted that the connection did not
// negotiate, no hello accepted whose flags are not 0 or
// FlagChecksum|FlagResilient — and append∘parse is the identity on every
// frame type, the property that keeps the v2 wire format stable as it
// evolves behind the version byte. (sub's seeds run 0–3; only its low bit
// counts.)
func FuzzShardHeader(f *testing.F) {
	for sub := byte(0); sub < 4; sub++ {
		fc := fuzzCodec(sub)
		f.Add(sub, byte(MsgShardPush), fc.appendPayload(nil, frame{t: MsgShardPush, step: 7, set: [][]byte{{1, 2, 3}, nil}}))
		f.Add(sub, byte(MsgShardHello), fc.appendPayload(nil, frame{t: MsgShardHello, arg: 0xfeed}))
		// The reserved flags: tenant tag, entropy stage, standby seat.
		f.Add(sub, byte(MsgShardPush), sealedRetired(fc, MsgShardPush, 0x01))
		f.Add(sub, byte(MsgShardPush), sealedRetired(fc, MsgShardPush, 0x02))
		f.Add(sub, byte(MsgShardHello), sealedRetired(fc, MsgShardHello, 0x01))
		f.Add(sub, byte(MsgShardHello), sealedRetired(fc, MsgShardHello, 0x10))
	}
	f.Add(byte(0), byte(MsgShardPushRun), []byte{ShardWireVersion, 0, 0, 0})
	// Reserved type 7, a frame per streamed tensor.
	f.Add(byte(0), byte(7), append(AppendShardHeader(nil, ShardHeader{Version: ShardWireVersion, Worker: 2, Shard: 3, Step: 7}), 0, 0, 0, 0))
	f.Add(byte(1), byte(MsgShardPull), bytes.Repeat([]byte{0xff}, ShardHeaderLen))
	hello, push := retiredEntropyFrames()
	f.Add(byte(0), byte(MsgShardHello), hello)
	f.Add(byte(0), byte(MsgShardPush), push)
	f.Fuzz(func(t *testing.T, sub, typ byte, data []byte) {
		fc := fuzzCodec(sub)
		if fr, err := fc.parseFrame(MsgType(typ), data, 7, true); err == nil {
			if fr.t >= 7 && fr.t <= 11 {
				t.Fatalf("accepted a frame of reserved type %d", fr.t)
			}
			if pushSide(fr.t) && fr.worker != fc.worker {
				t.Fatalf("accepted worker %d's push on worker %d's connection", fr.worker, fc.worker)
			}
			if fr.t != MsgShardBye && fr.step != 7 && !(pushSide(fr.t) && fr.step == 6) {
				t.Fatalf("accepted a type-%d frame for step %d at step 7", fr.t, fr.step)
			}
			if h, _, err := ParseShardHeader(data); err != nil || (h.Flags != 0) != fc.resilient ||
				h.Flags&^FlagChecksum != 0 || // FlagResilient is hello-only
				h.Shard != fc.shard {
				t.Fatalf("accepted header %+v (%v) on a connection that negotiated %+v", h, err, fc)
			}
		}
		if hc, _, err := parseHello(MsgType(typ), data); err == nil && !hc.v1 {
			if h, _, _ := ParseShardHeader(data); h.Flags != 0 && h.Flags != FlagChecksum|FlagResilient || (h.Flags != 0) != hc.resilient {
				t.Fatalf("accepted a hello with flags %#x as %+v: want 0 (plain) or %#x (resilient)", h.Flags, hc, FlagChecksum|FlagResilient)
			}
		}
		fuzzRoundTrip(t, sub, fuzzTypes[int(typ)%len(fuzzTypes)], data)
	})
}

// FuzzParseRun feeds arbitrary entry tables to applyRun, the one place a
// run's entries come off the wire, in a stream of up to 15 slots of which
// an earlier run may already have delivered one. No input panics; a table
// that is accepted re-encodes to exactly its bytes and delivers each slot
// it names once; and a table that is refused — a truncated, overflowing
// or padded varint, a length past the end, a slot out of range or
// delivered twice, trailing bytes that are no entry — leaves the
// aggregator bit-untouched: validation of the whole table comes before
// the first entry is handed on.
func FuzzParseRun(f *testing.F) {
	entries := func(slots ...int) []byte {
		var b []byte
		prev := -1
		for _, s := range slots {
			b, prev = appendEntry(b, prev, s, []byte{byte(s), 0xa5}), s
		}
		return b
	}
	f.Add(uint8(8), uint8(0), entries(0, 1, 2, 3))
	f.Add(uint8(8), uint8(0), entries(7, 2, 5))
	f.Add(uint8(8), uint8(0), []byte{})
	f.Add(uint8(8), uint8(0), []byte{0x80})                                                       // truncated slot delta
	f.Add(uint8(8), uint8(0), bytes.Repeat([]byte{0xff}, 11))                                     // overflowing slot delta
	f.Add(uint8(8), uint8(0), []byte{0x80, 0x00, 0x00})                                           // padded slot delta
	f.Add(uint8(8), uint8(0), []byte{0x00, 0x05, 0x01, 0x02})                                     // length past the end
	f.Add(uint8(8), uint8(0), []byte{0x00, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}) // length past any end
	f.Add(uint8(8), uint8(0), entries(8))                                                         // slot out of range
	f.Add(uint8(8), uint8(0), append(entries(3), 0x01, 0x00))                                     // slot 3 again
	f.Add(uint8(8), uint8(0x85), entries(4, 5, 6))                                                // slot 5 was an earlier run's
	f.Add(uint8(8), uint8(0), append(entries(0, 1), 0x00))                                        // trailing byte
	f.Fuzz(func(t *testing.T, n, earlier uint8, body []byte) {
		seen := make([]bool, n%16)
		if len(seen) > 0 && earlier&0x80 != 0 {
			seen[int(earlier&0x7f)%len(seen)] = true
		}
		before := append([]bool(nil), seen...)
		// The aggregator: per slot, the wires it was handed, in order.
		var acc [16][]byte
		var order []int
		k, err := applyRun(body, seen, func(slot int, wire []byte) error {
			acc[slot] = append(acc[slot], wire...)
			order = append(order, slot)
			return nil
		})
		if err != nil {
			if len(order) != 0 {
				t.Fatalf("refused run (%v) handed %d entries to the aggregator first", err, len(order))
			}
			return
		}
		if k != len(order) {
			t.Fatalf("accepted run of %d entries reports %d", len(order), k)
		}
		var re []byte
		prev := -1
		for _, slot := range order {
			if before[slot] || !seen[slot] {
				t.Fatalf("slot %d delivered again, or not marked seen", slot)
			}
			re, prev = appendEntry(re, prev, slot, acc[slot]), slot
		}
		if !bytes.Equal(re, body) {
			t.Fatalf("accepted run re-encodes to %x, not %x", re, body)
		}
	})
}

// FuzzFrameReader streams arbitrary bytes through the length-prefixed
// frame reader: no panics, no frame larger than the cap, every
// well-formed frame must round-trip through WriteFrame — and, since a
// link writes runs of frames that straddle the receiver's reads, cutting
// the stream into chunks (sized by the input's own bytes) must yield the
// same frames and the same end as reading it whole. Seeded with coalesced
// runs as both streaming ends flush them, plain and checksummed.
func FuzzFrameReader(f *testing.F) {
	var seed bytes.Buffer
	_ = WriteFrame(&seed, MsgPush, []byte("hello world"))
	_ = WriteFrame(&seed, MsgShardPush, AppendShardHeader(nil, ShardHeader{Version: ShardWireVersion}))
	f.Add(seed.Bytes())
	f.Add([]byte{1, 0, 0, 0, byte(MsgHello)})
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 1, 2, 3})
	var retired bytes.Buffer
	hello, push := retiredEntropyFrames()
	_ = WriteFrame(&retired, MsgShardHello, hello)
	_ = WriteFrame(&retired, MsgShardPush, push)
	f.Add(retired.Bytes())
	for sub := byte(0); sub < 2; sub++ {
		run, _ := coalescedRun(f, fuzzCodec(sub), 0, 1, 3, 100, 17, 300)
		f.Add(run)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fr := NewFrameReader(bytes.NewReader(data))
		var types []MsgType
		var payloads [][]byte
		var end error
		for {
			typ, payload, err := fr.ReadFrame()
			if err != nil {
				end = err // io.EOF, truncation, or bad length — all fine
				break
			}
			if 1+len(payload) > MaxFrameBytes {
				t.Fatalf("frame of %d bytes exceeds cap", 1+len(payload))
			}
			types, payloads = append(types, typ), append(payloads, append([]byte(nil), payload...))
			// A frame that read back must round-trip through WriteFrame.
			var out bytes.Buffer
			if err := WriteFrame(&out, typ, payload); err != nil {
				t.Fatalf("WriteFrame rejected a frame ReadFrame produced: %v", err)
			}
			rt := NewFrameReader(bytes.NewReader(out.Bytes()))
			typ2, payload2, err := rt.ReadFrame()
			if err != nil || typ2 != typ || !bytes.Equal(payload2, payload) {
				t.Fatalf("frame did not round-trip: %v", err)
			}
		}
		at := 0
		gotT, gotP, gotEnd := readAll(&chunkReader{data: data, next: func() int {
			at++
			return 1 + int(data[at%len(data)])*int(data[(at+1)%len(data)])
		}})
		if len(gotT) != len(types) || (gotEnd == io.EOF) != (end == io.EOF) {
			t.Fatalf("chunked: %d frames then %v; whole: %d frames then %v", len(gotT), gotEnd, len(types), end)
		}
		for k := range gotT {
			if gotT[k] != types[k] || !bytes.Equal(gotP[k], payloads[k]) {
				t.Fatalf("chunked read of frame %d differs from the whole-buffer read", k)
			}
		}
	})
}

// FuzzChecksummedFrame is the wire-integrity gate on the same parse
// entry: on a resilient connection, whose frames carry the trailer, every
// well-formed frame round-trips and, the
// property the chaos soak leans on, EVERY single-bit corruption of one is
// rejected, type byte and flag bits included. A corruption that parsed
// cleanly would aggregate garbage into the model instead of triggering a
// replay.
func FuzzChecksummedFrame(f *testing.F) {
	for sub := byte(0); sub < 4; sub++ {
		f.Add(sub, byte(sub), []byte("wire payload"), uint16(3+40*uint16(sub)))
	}
	f.Add(byte(0), byte(1), []byte{}, uint16(0))
	f.Add(byte(3), byte(5), []byte{0xff, 0x00, 0xff}, uint16(97))
	f.Fuzz(func(t *testing.T, sub, typ byte, body []byte, bit uint16) {
		sub |= 1 // the trailer is what is under test
		mt := fuzzTypes[int(typ)%len(fuzzTypes)]
		wire := fuzzRoundTrip(t, sub, mt, body)

		// Flip one bit anywhere in [type byte][frame]: never accepted.
		n := 8 * (1 + len(wire))
		at := int(bit) % n
		if at < 8 {
			mt ^= 1 << at
		} else {
			wire[(at-8)/8] ^= 1 << ((at - 8) % 8)
		}
		rx := fuzzCodec(sub)
		if _, err := rx.parseFrame(mt, wire, 7, true); err == nil {
			t.Fatalf("subset %#x: single-bit corruption at bit %d of %d was accepted", sub, at, n)
		}

		// The hello that opens a connection under the same contract parses
		// back to the codec that sent it, and no single-bit corruption of it
		// negotiates anything.
		tx := fuzzCodec(sub)
		hello := tx.appendPayload(nil, frame{t: MsgShardHello, arg: 0xfeed})
		hc, hash, err := parseHello(MsgShardHello, hello)
		if err != nil || hc != tx || hash != 0xfeed {
			t.Fatalf("subset %#x: hello parsed back as %+v, hash %#x (%v)", sub, hc, hash, err)
		}
		hello[int(bit)%len(hello)] ^= 1 << (bit % 8)
		if _, _, err := parseHello(MsgShardHello, hello); err == nil {
			t.Fatalf("subset %#x: corrupted hello (byte %d) was accepted", sub, int(bit)%len(hello))
		}
	})
}

// TestFrameReaderStopsAtEOF anchors the fuzz harness's termination
// assumption: a reader over a finite stream always ends in an error.
func TestFrameReaderStopsAtEOF(t *testing.T) {
	fr := NewFrameReader(bytes.NewReader(nil))
	if _, _, err := fr.ReadFrame(); err != io.EOF {
		t.Fatalf("err = %v, want io.EOF", err)
	}
}
