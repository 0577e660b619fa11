package compress

import (
	"fmt"
	"sync"

	"threelc/internal/entropy"
	"threelc/internal/tensor"
)

// Optional streaming entropy second stage (§3.3, §6 of the paper): the
// general-purpose byte coders 3LC deliberately avoids on fast links pay
// for themselves on WAN links, where every wire byte costs real time.
// WithEntropy wraps any base codec so its wire messages pass through a
// Huffman or LZ stage after zero-run encoding.
//
// Wire format (self-describing, like every scheme): [SchemeEntropy], then
// the inner wire message as a staged body (entropy.AppendStage: a stage id
// and the coded bytes, or the inner wire verbatim when coding would not
// beat it), so the stage's overhead is bounded at 2 bytes per message.
// Nesting is rejected: an inner wire that itself starts with
// SchemeEntropy fails to decode.
//
// The stage preserves the repo's steady-state zero-allocation contract:
// the inner wire is staged in a context-owned recycled buffer, the
// coders draw scratch from sync.Pools, and decode stages the inner wire
// in a pooled buffer before dispatching through the registry.

// EntropyAlgo selects the optional entropy second stage of a codec.
type EntropyAlgo uint8

// Entropy stage selectors for Options.Entropy: the stage ids of package
// entropy, off being the stage that stores.
const (
	EntropyOff     = EntropyAlgo(entropy.StageStored)
	EntropyHuffman = EntropyAlgo(entropy.StageHuffman)
	EntropyLZ      = EntropyAlgo(entropy.StageLZ)
)

// String names the stage for design tables and wire diagnostics.
func (a EntropyAlgo) String() string {
	switch a {
	case EntropyOff:
		return "off"
	case EntropyHuffman:
		return "huffman"
	case EntropyLZ:
		return "lz"
	default:
		return fmt.Sprintf("entropy(%d)", uint8(a))
	}
}

// ParseEntropyAlgo parses a command-line stage name.
func ParseEntropyAlgo(s string) (EntropyAlgo, error) {
	switch s {
	case "", "off", "none":
		return EntropyOff, nil
	case "huffman":
		return EntropyHuffman, nil
	case "lz":
		return EntropyLZ, nil
	default:
		return EntropyOff, fmt.Errorf("compress: unknown entropy stage %q (want off|huffman|lz)", s)
	}
}

// WithEntropy wraps c so every wire message passes through the entropy
// second stage. The wrapper forwards c's optional capabilities — a
// Stateful inner context keeps checkpointing (the stage itself is
// stateless), and a PreAccumulator inner context keeps the server's
// fused optimizer path (the stage re-wraps CompressPreAccumulated's
// output). algo EntropyOff returns c unchanged; wrapping a wrapper
// panics (nested stages never pay).
func WithEntropy(c Compressor, algo EntropyAlgo) Compressor {
	if algo == EntropyOff {
		return c
	}
	if algo != EntropyHuffman && algo != EntropyLZ {
		panic(fmt.Sprintf("compress: unknown entropy stage %d", algo))
	}
	if c.Scheme() == SchemeEntropy {
		panic("compress: WithEntropy applied to an already-wrapped context")
	}
	base := entropyCompressor{inner: c, algo: algo}
	st, hasSt := c.(Stateful)
	pa, hasPA := c.(PreAccumulator)
	switch {
	case hasSt && hasPA:
		return &entropyStatefulPreAcc{entropyStateful{base, st}, pa}
	case hasSt:
		return &entropyStateful{base, st}
	case hasPA:
		return &entropyPreAcc{base, pa}
	default:
		return &base
	}
}

type entropyCompressor struct {
	inner Compressor
	algo  EntropyAlgo
	buf   []byte // inner wire staging, recycled across steps
}

func (e *entropyCompressor) Scheme() Scheme { return SchemeEntropy }

func (e *entropyCompressor) Name() string {
	return e.inner.Name() + "+" + e.algo.String()
}

func (e *entropyCompressor) Compress(in *tensor.Tensor) []byte {
	return e.CompressInto(in, nil)
}

//3lc:noalloc
func (e *entropyCompressor) CompressInto(in *tensor.Tensor, dst []byte) []byte {
	e.buf = e.inner.CompressInto(in, e.buf[:0])
	if len(e.buf) == 0 {
		return dst // local steps: transmit nothing
	}
	return appendEntropyWire(dst, e.algo, e.buf)
}

type entropyStateful struct {
	entropyCompressor
	st Stateful
}

func (e *entropyStateful) AppendState(dst []byte) []byte { return e.st.AppendState(dst) }
func (e *entropyStateful) RestoreState(src []byte) error { return e.st.RestoreState(src) }

type entropyPreAcc struct {
	entropyCompressor
	pa PreAccumulator
}

func (e *entropyPreAcc) AccData() []float32 { return e.pa.AccData() }

func (e *entropyPreAcc) CompressPreAccumulated(maxAbs float32, dst []byte) []byte {
	return entropyPreAccumulated(&e.entropyCompressor, e.pa, maxAbs, dst)
}

type entropyStatefulPreAcc struct {
	entropyStateful
	pa PreAccumulator
}

func (e *entropyStatefulPreAcc) AccData() []float32 { return e.pa.AccData() }

func (e *entropyStatefulPreAcc) CompressPreAccumulated(maxAbs float32, dst []byte) []byte {
	return entropyPreAccumulated(&e.entropyCompressor, e.pa, maxAbs, dst)
}

func entropyPreAccumulated(e *entropyCompressor, pa PreAccumulator, maxAbs float32, dst []byte) []byte {
	e.buf = pa.CompressPreAccumulated(maxAbs, e.buf[:0])
	if len(e.buf) == 0 {
		return dst
	}
	return appendEntropyWire(dst, e.algo, e.buf)
}

// appendEntropyWire appends [SchemeEntropy] and inner as a staged body.
func appendEntropyWire(dst []byte, algo EntropyAlgo, inner []byte) []byte {
	return entropy.AppendStage(append(dst, byte(SchemeEntropy)), byte(algo), inner)
}

// entropyBufPool stages decoded inner wires so the decode path allocates
// nothing in steady state.
var entropyBufPool = sync.Pool{New: func() any { return new([]byte) }}

// entropyInner recovers the inner wire message from an entropy payload
// (the bytes after the SchemeEntropy identifier), staging coded bodies
// in *buf. The returned slice aliases either payload (stored) or *buf
// (coded); callers must not retain it past the pooled buffer's return.
func entropyInner(payload []byte, buf *[]byte) ([]byte, error) {
	inner, err := entropy.ParseStage(payload, buf)
	if err != nil {
		return nil, fmt.Errorf("compress: entropy payload: %w", err)
	}
	if len(inner) > 0 && Scheme(inner[0]) == SchemeEntropy {
		return nil, fmt.Errorf("compress: nested entropy stage rejected")
	}
	return inner, nil
}

func init() {
	RegisterDecoder(SchemeEntropy, func(payload []byte, dst *tensor.Tensor) error {
		bp := entropyBufPool.Get().(*[]byte)
		inner, err := entropyInner(payload, bp)
		if err == nil {
			err = DecompressInto(inner, dst)
		}
		entropyBufPool.Put(bp)
		return err
	})
	// The add path inherits the inner decoder's validate-then-accumulate
	// contract: every entropy-stage failure happens before dst is touched.
	RegisterAddDecoder(SchemeEntropy, func(payload []byte, dst *tensor.Tensor, workers int) error {
		bp := entropyBufPool.Get().(*[]byte)
		inner, err := entropyInner(payload, bp)
		if err == nil {
			err = DecompressAddInto(inner, dst, workers)
		}
		entropyBufPool.Put(bp)
		return err
	})
}
