package entropy

import "fmt"

// A staged body is the one framing every consumer of the coders shares —
// the codec's SchemeEntropy wire, the transport's FlagEntropy frame body
// and the region tier's inter-region link:
//
//	[1B stage id][body]
//	stage id := 0  stored   — body is the raw bytes verbatim
//	          | 1  huffman  — body is HuffmanEncodeInto(raw)
//	          | 2  lz       — body is LZEncodeInto(raw)
//
// The encoder codes optimistically and stores when the coded body would
// not beat raw, which bounds the stage's overhead at the id byte.
const (
	StageStored byte = iota
	StageHuffman
	StageLZ
)

// AppendStage appends raw to dst as a staged body coded by stage and
// returns the extended slice. An id with no coder behind it stores.
//
//3lc:noalloc
func AppendStage(dst []byte, stage byte, raw []byte) []byte {
	dst = append(dst, stage)
	mark := len(dst)
	switch stage {
	case StageHuffman:
		dst = HuffmanEncodeInto(dst, raw)
	case StageLZ:
		dst = LZEncodeInto(dst, raw)
	}
	if n := len(dst) - mark; n == 0 || n >= len(raw) { // no coder ran, or it did not win
		dst[mark-1] = StageStored
		dst = append(dst[:mark], raw...)
	}
	return dst
}

// ParseStage recovers the raw bytes of a staged body, decoding a coded one
// into *buf (recycled by the caller). The returned slice aliases src
// (stored) or *buf (coded).
//
//3lc:noalloc
//3lc:decode
func ParseStage(src []byte, buf *[]byte) ([]byte, error) {
	if len(src) < 1 {
		return nil, fmt.Errorf("entropy: staged body missing stage id")
	}
	var err error
	//3lc:allow nopanic emptying the caller's scratch is in range whatever it holds
	dec := (*buf)[:0]
	switch src[0] {
	case StageStored:
		return src[1:], nil
	case StageHuffman:
		dec, err = HuffmanDecodeInto(dec, src[1:])
	case StageLZ:
		dec, err = LZDecodeInto(dec, src[1:])
	default:
		return nil, fmt.Errorf("entropy: unknown stage id %d", src[0])
	}
	*buf = dec
	if err != nil {
		return nil, err
	}
	return dec, nil
}
