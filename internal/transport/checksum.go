// Frame integrity for the v2 wire: the CRC-32C trailer of a resilient
// connection, whose hello sets FlagChecksum|FlagResilient.
//
// The contract is connection-scoped and self-describing: a resilient
// client appends a 4-byte little-endian CRC-32C (Castagnoli) over the
// frame type byte plus the entire frame payload — shard header included —
// to every frame it sends on that connection, hello first, and the server
// answers in kind; every header carries FlagChecksum. It is the codec's
// last stage (frameCodec.seal), so it covers the header and the body —
// spliced wires included — exactly as they travel. The trailer is REQUIRED
// both ways: a frame arriving without a valid one (including one whose
// flag bit itself was corrupted — the CRC covers the flag byte) is
// rejected, so a flipped bit anywhere in a frame becomes a detected error
// the resilient path can retry instead of silent model-state divergence;
// replay without it would retransmit the very corruption it recovers from.
// A plain connection carries no trailer. CRC-32C has hardware support on
// every mainstream ISA, which is what keeps the resilient steady state at
// parity with the plain one.
package transport

import (
	"errors"
	"fmt"
	"hash/crc32"
)

// FlagChecksum marks a header whose frame carries a trailing 4-byte
// CRC-32C over the whole payload (header and body): every header of a
// resilient connection. See the comment above.
const FlagChecksum byte = 1 << 2

// FlagResilient marks, beside FlagChecksum, a hello from a client that may
// tear down and re-dial this connection mid-run, replaying its in-flight
// step's push (ShardClientConfig.Resilient). A server configured with
// ShardServerConfig.Resilient then keeps the worker's seat across
// reconnects, dedupes replayed pushes on the (worker, step) identity, and
// answers missed pulls from the retained last payload; any other server
// refuses the hello.
const FlagResilient byte = 1 << 3

// checksumLen is the CRC-32C trailer size.
const checksumLen = 4

// ErrChecksum marks a frame whose CRC-32C trailer did not verify: the
// payload was corrupted in flight (or truncated past the trailer).
var ErrChecksum = errors.New("transport: frame checksum mismatch")

// castagnoli is the CRC-32C table (iSCSI polynomial), computed once;
// crc32.Checksum against it is allocation-free and hardware-accelerated
// where available.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// typeCRC[t] is the CRC-32C state after folding in the single type byte
// t. Precomputed so the hot path never materializes a one-byte slice —
// an array sliced into crc32.Checksum escapes, and one heap-allocated
// byte per frame each way would break the steady-state zero-alloc gate.
var typeCRC = func() (tab [256]uint32) {
	for t := range tab {
		tab[t] = crc32.Checksum([]byte{byte(t)}, castagnoli)
	}
	return
}()

// frameChecksum computes the CRC-32C over [1B frame type][payload]. The
// type byte lives outside the frame payload on the wire, but it routes
// the payload to a handler — a flipped type bit must fail verification,
// not reinterpret a valid body under the wrong state machine — so it is
// folded in first.
func frameChecksum(t MsgType, payload []byte) uint32 {
	return crc32.Update(typeCRC[byte(t)], castagnoli, payload)
}

// verifyChecksum validates payload's CRC-32C trailer against the frame
// type it arrived under and returns the payload with the trailer
// stripped. The returned slice aliases payload.
func verifyChecksum(t MsgType, payload []byte) ([]byte, error) {
	if len(payload) < checksumLen {
		return nil, fmt.Errorf("transport: %d-byte frame cannot carry a checksum trailer: %w", len(payload), ErrChecksum)
	}
	body := payload[:len(payload)-checksumLen]
	if got, want := frameChecksum(t, body), le.Uint32(payload[len(payload)-checksumLen:]); got != want {
		return nil, fmt.Errorf("transport: frame CRC-32C %#x != trailer %#x: %w", got, want, ErrChecksum)
	}
	return body, nil
}
