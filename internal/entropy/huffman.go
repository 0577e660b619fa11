// Package entropy implements the general-purpose byte compressors the
// paper positions zero-run encoding against (§3.3, §6): a canonical
// Huffman coder (the entropy-coding family of QSGD/Øland-Raj) and a
// Snappy-like byte-level LZ coder. 3LC deliberately avoids these —
// "zero-run encoding is simple to implement and fast to run by avoiding
// any bit-level operation and lookup tables" — and the ablation benchmark
// quantifies that trade: comparable ratios on quartic-encoded data at a
// fraction of the cost.
//
// Nothing puts these coders' bytes on a wire: on every wire the system
// moves they code to within a few percent of the input, or longer (README,
// "Entropy coders on the wire"). They stay as the measuring probes of that
// finding and of the ablation. The API is append-style (HuffmanEncodeInto
// / HuffmanDecodeInto / LZEncodeInto / LZDecodeInto) with every table and
// scratch buffer drawn from a sync.Pool, so a caller that recycles its
// destination buffers performs zero heap allocations per call in steady
// state. The one-shot names remain as shims over the Into forms.
package entropy

import (
	"encoding/binary"
	"fmt"
	"sync"
)

// Huffman-coded stream format:
//
//	[4B LE decoded length][256B code lengths][bit stream]
//
// Code lengths define a canonical Huffman code; a zero length means the
// symbol does not occur. Codes are assigned canonically — symbols sorted
// by (length, value) receive consecutive codes — and each code is
// emitted LSB-first after bit-reversal, so the bit stream delivers the
// canonical code MSB-first and the decoder can walk it with the
// table-driven first/count/offset scheme with no per-stream map.

const maxCodeLen = 31

// huffScratch holds every table both directions of the coder need, so a
// pooled instance makes encode and decode allocation-free. ~8 KiB.
type huffScratch struct {
	freq    [256]int
	lengths [256]byte
	codes   [256]uint32

	// Tree construction (encode): up to 256 leaves + 255 internal nodes.
	nodeWeight [511]int
	nodeSym    [511]int16 // >= 0 for leaves
	nodeLeft   [511]int16
	nodeRight  [511]int16
	heap       [256]int16 // min-heap of node indices by weight
	nHeap      int

	// Depth assignment (encode): explicit DFS stack.
	stackIdx   [511]int16
	stackDepth [511]byte

	// Canonical decode tables: per-length code counts, the first
	// (MSB-first) code of each length, and the offset of each length's
	// symbol run inside symbols.
	count   [maxCodeLen + 1]uint32
	first   [maxCodeLen + 1]uint32
	offset  [maxCodeLen + 1]uint32
	symbols [256]byte
}

var huffPool = sync.Pool{New: func() any { return new(huffScratch) }}

// HuffmanEncode compresses data with a canonical Huffman code built from
// its own byte frequencies. It is HuffmanEncodeInto(nil, data).
func HuffmanEncode(data []byte) []byte {
	return HuffmanEncodeInto(nil, data)
}

// HuffmanEncodeInto appends the Huffman-coded stream for data to dst and
// returns the extended slice. All coder state comes from a pooled
// scratch, so driving it with a recycled dst performs zero heap
// allocations per call once capacities converge.
//
//3lc:noalloc
func HuffmanEncodeInto(dst, data []byte) []byte {
	hs := huffPool.Get().(*huffScratch)
	hs.buildCodeLengths(data)
	hs.buildCodes()

	base := len(dst)
	var hdr [4 + 256]byte
	dst = append(dst, hdr[:]...)
	binary.LittleEndian.PutUint32(dst[base:], uint32(len(data)))
	copy(dst[base+4:], hs.lengths[:])

	var acc uint64
	var nbits uint
	for _, b := range data {
		acc |= uint64(hs.codes[b]) << nbits
		nbits += uint(hs.lengths[b])
		for nbits >= 8 {
			dst = append(dst, byte(acc))
			acc >>= 8
			nbits -= 8
		}
	}
	if nbits > 0 {
		dst = append(dst, byte(acc))
	}
	huffPool.Put(hs)
	return dst
}

// HuffmanDecode reverses HuffmanEncode. It is HuffmanDecodeInto(nil, enc).
func HuffmanDecode(enc []byte) ([]byte, error) {
	return HuffmanDecodeInto(nil, enc)
}

// HuffmanDecodeInto appends the decoded bytes to dst and returns the
// extended slice. enc is untrusted network data: malformed streams
// (truncation, over-subscribed code-length tables, codes that overrun
// maxCodeLen) return an error with dst unmodified (the returned slice is
// dst re-sliced to its original length), and never panic. Decoding uses
// canonical first/count/offset tables from a pooled scratch — no
// per-stream map — so a recycled dst makes the call allocation-free.
//
//3lc:noalloc
//3lc:decode
func HuffmanDecodeInto(dst, enc []byte) ([]byte, error) {
	base := len(dst)
	if len(enc) < 4+256 {
		return dst, fmt.Errorf("entropy: huffman stream too short (%d bytes)", len(enc))
	}
	n := int(binary.LittleEndian.Uint32(enc))
	if n == 0 {
		return dst, nil
	}
	hs := huffPool.Get().(*huffScratch)
	defer huffPool.Put(hs)
	copy(hs.lengths[:], enc[4:4+256])
	nsyms, err := hs.buildDecodeTables()
	if err != nil {
		return dst, err
	}
	if nsyms == 0 {
		return dst, fmt.Errorf("entropy: huffman stream declares no symbols for %d bytes", n)
	}
	body := enc[4+256:]

	var code uint32
	codeLen := 0
	for _, b := range body {
		for bit := 0; bit < 8; bit++ {
			code = code<<1 | uint32(b>>uint(bit))&1
			codeLen++
			// Canonical invariant: at every length code >= first[l], and
			// the live codes of length l are [first[l], first[l]+count[l]).
			if idx := code - hs.first[codeLen]; idx < hs.count[codeLen] {
				dst = append(dst, hs.symbols[hs.offset[codeLen]+idx])
				code, codeLen = 0, 0
				if len(dst)-base == n {
					return dst, nil
				}
			} else if codeLen == maxCodeLen {
				return dst[:base], fmt.Errorf("entropy: code overruns %d bits", maxCodeLen)
			}
		}
	}
	return dst[:base], fmt.Errorf("entropy: huffman stream truncated (%d of %d bytes decoded)", len(dst)-base, n)
}

// buildCodeLengths constructs Huffman code lengths from data's byte
// frequencies into hs.lengths. Lengths are capped at maxCodeLen with a
// Kraft-preserving adjustment, so the resulting canonical code is always
// a valid prefix code (the cap needs multi-megabyte adversarial
// frequency skews to even trigger).
func (hs *huffScratch) buildCodeLengths(data []byte) {
	for i := range hs.freq {
		hs.freq[i] = 0
	}
	for _, b := range data {
		hs.freq[b]++
	}
	for i := range hs.lengths {
		hs.lengths[i] = 0
	}

	nNodes := 0
	hs.nHeap = 0
	for s := 0; s < 256; s++ {
		if hs.freq[s] > 0 {
			hs.nodeWeight[nNodes] = hs.freq[s]
			hs.nodeSym[nNodes] = int16(s)
			hs.nodeLeft[nNodes], hs.nodeRight[nNodes] = -1, -1
			hs.heapPush(int16(nNodes))
			nNodes++
		}
	}
	if nNodes == 0 {
		return
	}
	if nNodes == 1 {
		hs.lengths[hs.nodeSym[0]] = 1
		return
	}
	for hs.nHeap > 1 {
		a, b := hs.heapPop(), hs.heapPop()
		hs.nodeWeight[nNodes] = hs.nodeWeight[a] + hs.nodeWeight[b]
		hs.nodeSym[nNodes] = -1
		hs.nodeLeft[nNodes], hs.nodeRight[nNodes] = a, b
		hs.heapPush(int16(nNodes))
		nNodes++
	}

	// Depth-first assignment of depths as code lengths.
	top := 0
	hs.stackIdx[0], hs.stackDepth[0] = hs.heap[0], 0
	top++
	overlong := false
	for top > 0 {
		top--
		idx, depth := hs.stackIdx[top], hs.stackDepth[top]
		if sym := hs.nodeSym[idx]; sym >= 0 {
			d := depth
			if d == 0 {
				d = 1
			}
			if d > maxCodeLen {
				d = maxCodeLen
				overlong = true
			}
			hs.lengths[sym] = d
			continue
		}
		hs.stackIdx[top], hs.stackDepth[top] = hs.nodeLeft[idx], depth+1
		top++
		hs.stackIdx[top], hs.stackDepth[top] = hs.nodeRight[idx], depth+1
		top++
	}
	if overlong {
		hs.restoreKraft()
	}
}

// restoreKraft repairs the code-length multiset after depths were capped
// at maxCodeLen: capping shortens codes, which can over-subscribe the
// code space. Lengthening the deepest still-lengthenable codes restores
// Kraft validity with minimal ratio damage.
func (hs *huffScratch) restoreKraft() {
	const limit = uint64(1) << maxCodeLen
	kraft := uint64(0)
	for _, l := range hs.lengths {
		if l > 0 {
			kraft += uint64(1) << (maxCodeLen - l)
		}
	}
	for kraft > limit {
		// Deepest symbol shorter than the cap: lengthening it frees the
		// least code space per step, so the loop converges exactly.
		deepest, dl := -1, byte(0)
		for s, l := range hs.lengths {
			if l > dl && l < maxCodeLen {
				deepest, dl = s, l
			}
		}
		if deepest < 0 {
			return // all symbols at the cap: kraft <= 256 << 0 <= limit
		}
		hs.lengths[deepest] = dl + 1
		kraft -= uint64(1) << (maxCodeLen - dl - 1)
	}
}

// buildCodes derives canonical codes from hs.lengths into hs.codes,
// stored bit-reversed so LSB-first emission yields the canonical code
// MSB-first on the wire.
func (hs *huffScratch) buildCodes() {
	for i := range hs.count {
		hs.count[i] = 0
	}
	for _, l := range hs.lengths {
		if l > 0 {
			hs.count[l]++
		}
	}
	var next [maxCodeLen + 1]uint32
	code := uint32(0)
	for l := 1; l <= maxCodeLen; l++ {
		code = (code + hs.count[l-1]) << 1
		next[l] = code
	}
	for s := 0; s < 256; s++ {
		if l := hs.lengths[s]; l > 0 {
			hs.codes[s] = reverseBits(next[l], uint(l))
			next[l]++
		}
	}
}

// buildDecodeTables validates hs.lengths as an untrusted code-length
// table and fills the canonical decode tables (count, first, offset,
// symbols). It returns the number of declared symbols, or an error if
// the lengths over-subscribe the code space (no prefix code exists).
func (hs *huffScratch) buildDecodeTables() (int, error) {
	for i := range hs.count {
		hs.count[i] = 0
	}
	nsyms := 0
	for _, l := range hs.lengths {
		if l == 0 {
			continue
		}
		if l > maxCodeLen {
			return 0, fmt.Errorf("entropy: code length %d exceeds %d bits", l, maxCodeLen)
		}
		hs.count[l]++
		nsyms++
	}
	var kraft uint64
	for l := 1; l <= maxCodeLen; l++ {
		kraft += uint64(hs.count[l]) << uint(maxCodeLen-l)
	}
	if kraft > uint64(1)<<maxCodeLen {
		return nsyms, fmt.Errorf("entropy: huffman code lengths over-subscribe the code space")
	}
	code := uint32(0)
	off := uint32(0)
	var next [maxCodeLen + 1]uint32
	for l := 1; l <= maxCodeLen; l++ {
		code = (code + hs.count[l-1]) << 1
		hs.first[l] = code
		hs.offset[l] = off
		next[l] = off
		off += hs.count[l]
	}
	for s := 0; s < 256; s++ {
		if l := hs.lengths[s]; l > 0 {
			hs.symbols[next[l]] = byte(s)
			next[l]++
		}
	}
	return nsyms, nil
}

func (hs *huffScratch) heapPush(i int16) {
	hs.heap[hs.nHeap] = i
	c := hs.nHeap
	hs.nHeap++
	for c > 0 {
		p := (c - 1) / 2
		if hs.nodeWeight[hs.heap[p]] <= hs.nodeWeight[hs.heap[c]] {
			break
		}
		hs.heap[p], hs.heap[c] = hs.heap[c], hs.heap[p]
		c = p
	}
}

func (hs *huffScratch) heapPop() int16 {
	top := hs.heap[0]
	hs.nHeap--
	hs.heap[0] = hs.heap[hs.nHeap]
	c := 0
	for {
		l, r := 2*c+1, 2*c+2
		small := c
		if l < hs.nHeap && hs.nodeWeight[hs.heap[l]] < hs.nodeWeight[hs.heap[small]] {
			small = l
		}
		if r < hs.nHeap && hs.nodeWeight[hs.heap[r]] < hs.nodeWeight[hs.heap[small]] {
			small = r
		}
		if small == c {
			break
		}
		hs.heap[c], hs.heap[small] = hs.heap[small], hs.heap[c]
		c = small
	}
	return top
}

func reverseBits(v uint32, n uint) uint32 {
	var r uint32
	for i := uint(0); i < n; i++ {
		r = (r << 1) | ((v >> i) & 1)
	}
	return r
}
