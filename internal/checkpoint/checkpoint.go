// Package checkpoint serializes trained models: parameter tensors by name
// plus batch-norm running statistics. A production training system needs
// durable snapshots (the paper's measurement methodology reads "the
// snapshot of the global model" for accuracy evaluation, §5.2); this is
// that mechanism.
//
// Format (all little-endian):
//
//	magic "3LCCKPT1"
//	u32 paramCount
//	per param: u16 nameLen, name, u8 rank, u32 dims..., f32 data...
//	u32 bnCount
//	per BN layer: u32 width, f64 mean..., f64 var...
//
// Batch-norm layers are serialized in model Walk order, so loading
// requires a structurally identical model — the same contract as
// nn.CopyBatchNormStats.
package checkpoint

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"threelc/internal/kernel"
	"threelc/internal/nn"
)

var magic = [8]byte{'3', 'L', 'C', 'C', 'K', 'P', 'T', '1'}

var le = binary.LittleEndian

// floatChunk is how many float32 values Save and parse move per call of
// the kernel's raw cores: one fixed 16 KiB buffer, whatever the tensor
// size, also the scratch every integer field and float64 statistic is
// formatted in — so a snapshot costs a handful of allocations, not one per
// value (train.captureRunState saves every replica at a step boundary).
const floatChunk = 4096

// Save writes m's parameters and batch-norm statistics to w.
func Save(w io.Writer, m *nn.Model) error {
	// A bufio.Writer keeps its first error and refuses everything after
	// it, so the writes below go unchecked and Flush reports the outcome.
	bw := bufio.NewWriter(w)
	buf := make([]byte, 0, 4*floatChunk)
	bw.Write(magic[:])
	params := m.Params()
	bw.Write(le.AppendUint32(buf, uint32(len(params))))
	for _, p := range params {
		if len(p.Name) > 1<<16-1 {
			return fmt.Errorf("checkpoint: parameter name %q too long", p.Name)
		}
		bw.Write(le.AppendUint16(buf, uint16(len(p.Name))))
		bw.WriteString(p.Name)
		shape := p.W.Shape()
		bw.WriteByte(byte(len(shape)))
		for _, d := range shape {
			bw.Write(le.AppendUint32(buf, uint32(d)))
		}
		for data := p.W.Data(); len(data) > 0; {
			k := min(len(data), floatChunk)
			bw.Write(kernel.AppendRaw(buf, data[:k]))
			data = data[k:]
		}
	}

	// Batch-norm running statistics, in Walk order.
	var stats [][2][]float64
	nn.Walk(m.Net, func(l nn.Layer) {
		if mean, variance, ok := bnStats(l); ok {
			stats = append(stats, [2][]float64{mean, variance})
		}
	})
	bw.Write(le.AppendUint32(buf, uint32(len(stats))))
	for _, s := range stats {
		bw.Write(le.AppendUint32(buf, uint32(len(s[0]))))
		for _, vals := range s {
			for len(vals) > 0 {
				k := min(len(vals), floatChunk/2)
				b := buf
				for _, v := range vals[:k] {
					b = le.AppendUint64(b, math.Float64bits(v))
				}
				bw.Write(b)
				vals = vals[k:]
			}
		}
	}
	return bw.Flush()
}

// Load restores parameters and batch-norm statistics into m, which must
// have the same architecture (parameter names, shapes, BN layout) as the
// model that was saved.
//
// Load is transactional: the checkpoint is fully parsed and validated into
// staging buffers before the first byte of the model is modified, so a
// malformed or truncated checkpoint returns an error with the model
// untouched (FuzzCheckpointLoad pins this).
//
//3lc:decode
func Load(r io.Reader, m *nn.Model) error {
	staged, bn, err := parse(r, m)
	if err != nil {
		return err
	}
	params := m.Params()
	var layers []nn.Layer
	nn.Walk(m.Net, func(l nn.Layer) {
		if _, _, ok := bnStats(l); ok {
			layers = append(layers, l)
		}
	})
	// parse stages exactly one entry per parameter and per BN layer; pin
	// that contract here so the copy loops below are visibly in bounds.
	if len(staged) != len(params) || len(bn) != len(layers) {
		return fmt.Errorf("checkpoint: staging mismatch: %d/%d params, %d/%d bn layers",
			len(staged), len(params), len(bn), len(layers))
	}
	for i, p := range params {
		copy(p.W.Data(), staged[i])
	}
	for li, l := range layers {
		mean, variance, _ := bnStats(l)
		copy(mean, bn[li][0])
		copy(variance, bn[li][1])
	}
	return nil
}

// parse reads and validates a v1 checkpoint against m's architecture,
// returning staged parameter data (in m.Params() order) and staged
// batch-norm statistics (in Walk order) without touching the model.
//
//3lc:decode
func parse(r io.Reader, m *nn.Model) (staged [][]float32, bn [][2][]float64, err error) {
	br := bufio.NewReader(r)
	// The one scratch buffer behind every field: see floatChunk.
	var buf [4 * floatChunk]byte
	readU32 := func() (uint32, error) {
		if _, err := io.ReadFull(br, buf[:4]); err != nil {
			return 0, err
		}
		return le.Uint32(buf[:4]), nil
	}
	readF64s := func(dst []float64) error {
		for len(dst) > 0 {
			k := min(len(dst), floatChunk/2)
			if _, err := io.ReadFull(br, buf[:8*k]); err != nil {
				return err
			}
			for j := range dst[:k] {
				dst[j] = math.Float64frombits(le.Uint64(buf[8*j:]))
			}
			dst = dst[k:]
		}
		return nil
	}

	if _, err := io.ReadFull(br, buf[:len(magic)]); err != nil {
		return nil, nil, fmt.Errorf("checkpoint: reading magic: %w", err)
	}
	if gotMagic := [8]byte(buf[:len(magic)]); gotMagic != magic {
		return nil, nil, fmt.Errorf("checkpoint: bad magic %q", gotMagic)
	}
	count, err := readU32()
	if err != nil {
		return nil, nil, err
	}
	params := m.Params()
	byName := make(map[string]int, len(params))
	for i, p := range params {
		byName[p.Name] = i
	}
	if int(count) != len(params) {
		return nil, nil, fmt.Errorf("checkpoint: %d parameters, model has %d", count, len(params))
	}
	staged = make([][]float32, len(params))
	for i := 0; i < int(count); i++ {
		if _, err := io.ReadFull(br, buf[:2]); err != nil {
			return nil, nil, err
		}
		nameBuf := make([]byte, le.Uint16(buf[:2]))
		if _, err := io.ReadFull(br, nameBuf); err != nil {
			return nil, nil, err
		}
		name := string(nameBuf)
		pi, ok := byName[name]
		if !ok || pi >= len(staged) {
			return nil, nil, fmt.Errorf("checkpoint: unknown parameter %q", name)
		}
		if staged[pi] != nil {
			return nil, nil, fmt.Errorf("checkpoint: duplicate parameter %q", name)
		}
		p := params[pi]
		rank, err := br.ReadByte()
		if err != nil {
			return nil, nil, err
		}
		n := 1
		for d := 0; d < int(rank); d++ {
			dim, err := readU32()
			if err != nil {
				return nil, nil, err
			}
			n *= int(dim)
		}
		if n != p.W.Len() {
			return nil, nil, fmt.Errorf("checkpoint: parameter %q has %d elements, model wants %d", name, n, p.W.Len())
		}
		data := make([]float32, n)
		for rest := data; len(rest) > 0; {
			k := min(len(rest), floatChunk)
			if _, err := io.ReadFull(br, buf[:4*k]); err != nil {
				return nil, nil, fmt.Errorf("checkpoint: parameter %q truncated: %w", name, err)
			}
			kernel.RawGet(rest[:k], buf[:4*k])
			rest = rest[k:]
		}
		staged[pi] = data
	}

	bnCount, err := readU32()
	if err != nil {
		return nil, nil, err
	}
	var widths []int
	nn.Walk(m.Net, func(l nn.Layer) {
		if mean, _, ok := bnStats(l); ok {
			widths = append(widths, len(mean))
		}
	})
	if int(bnCount) != len(widths) {
		return nil, nil, fmt.Errorf("checkpoint: %d batch-norm layers, model has %d", bnCount, len(widths))
	}
	bn = make([][2][]float64, 0, len(widths))
	for _, want := range widths {
		width, err := readU32()
		if err != nil {
			return nil, nil, err
		}
		if int(width) != want {
			return nil, nil, fmt.Errorf("checkpoint: batch-norm width %d, model wants %d", width, want)
		}
		mean := make([]float64, want)
		variance := make([]float64, want)
		if err := readF64s(mean); err != nil {
			return nil, nil, err
		}
		if err := readF64s(variance); err != nil {
			return nil, nil, err
		}
		bn = append(bn, [2][]float64{mean, variance})
	}
	return staged, bn, nil
}

// SaveFile writes a checkpoint to path atomically: the bytes go to a temp
// file in the same directory, are fsynced, and are renamed over path only
// once complete, with the prior snapshot preserved at path.bak. A crash
// mid-save can therefore never destroy the previous good checkpoint.
func SaveFile(path string, m *nn.Model) error {
	return writeFileAtomic(path, func(w io.Writer) error { return Save(w, m) })
}

// LoadFile restores a checkpoint from path.
func LoadFile(path string, m *nn.Model) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return Load(f, m)
}

// bnStats exposes a batch-norm layer's running statistics slices (aliased)
// for serialization.
func bnStats(l nn.Layer) (mean, variance []float64, ok bool) {
	switch t := l.(type) {
	case *nn.BatchNorm1D:
		m, v := t.RunningStats()
		return m, v, true
	case *nn.BatchNorm2D:
		m, v := t.RunningStats()
		return m, v, true
	}
	return nil, nil, false
}
