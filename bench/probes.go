package main

import (
	"bytes"
	"fmt"
	"time"

	"threelc/internal/compress"
	"threelc/internal/entropy"
	"threelc/internal/kernel"
	"threelc/internal/nn"
	"threelc/internal/ps"
	"threelc/internal/tensor"
	"threelc/internal/transport"
)

// The replay probes time single layers from outside, after the traced
// pass, by feeding the gradients and wire sets it captured through each
// layer's exported entry points. Every probe reports the median over the
// captured steps of what one worker's (or the server's) share of one step
// costs in that layer alone. Each replays the first captured step once
// more in front, untimed, so buffers have their steady size when timing
// starts.

// timeIt returns fn's wall time in nanoseconds.
func timeIt(fn func()) int64 {
	start := time.Now()
	fn()
	return int64(time.Since(start))
}

// compressed reports whether the tier compresses tensor prm, by the rule
// ps.Config applies on both endpoints.
func compressed(wl *workload, prm *nn.Param) bool {
	return wl.scheme != compress.SchemeNone && !prm.NoCompress && prm.W.Len() >= minCompressElems
}

// steady is the median of the samples after the warm-up replay.
func steady(samples []float64) float64 { return median(samples[1:]) }

func runProbes(wl *workload, in inputs, cfg ps.Config, caps []captured, replayServer bool) (map[string]float64, error) {
	out := make(map[string]float64)
	if len(caps) == 0 {
		return nil, fmt.Errorf("probes: the traced pass captured no steps")
	}
	caps = append(caps[:1:1], caps...)
	model := wl.build(in)
	params := model.Params()
	elems := model.NumParams()

	if err := probeKernel(out, wl, params, caps); err != nil {
		return nil, err
	}
	if err := probeCompress(out, wl, params, caps); err != nil {
		return nil, err
	}
	if err := probeEntropy(out, caps); err != nil {
		return nil, err
	}
	if err := probeFrames(out, caps); err != nil {
		return nil, err
	}
	if replayServer {
		if err := probeServer(out, model, cfg, caps); err != nil {
			return nil, err
		}
	}

	// The memcpy roofline: what moving the model once costs on this host.
	src, dst := make([]float32, elems), make([]float32, elems)
	var gbps []float64
	for i := 0; i < 9; i++ {
		ns := timeIt(func() { copy(dst, src) })
		gbps = append(gbps, float64(4*elems)/float64(ns))
	}
	out["kernel.memcpy_gbps"] = median(gbps)
	return out, nil
}

// probeKernel replays worker 0's captured gradients through the two
// compress passes and the push decode, kernel calls only. Residual
// buffers persist across the captured steps, as a context's would.
func probeKernel(out map[string]float64, wl *workload, params []*nn.Param, caps []captured) error {
	out["kernel.encode_ns_per_elem"] = 0
	out["kernel.decode_add_ns_per_elem"] = 0
	if wl.scheme != compress.SchemeThreeLC {
		return nil
	}
	resid := make([][]float32, len(params))
	acc := make([][]float32, len(params))
	body := make([][]byte, len(params))
	scale := make([]float32, len(params))
	n := 0
	for i, prm := range params {
		if compressed(wl, prm) {
			resid[i] = make([]float32, prm.W.Len())
			acc[i] = make([]float32, prm.W.Len())
			n += prm.W.Len()
		}
	}
	if n == 0 {
		return nil
	}
	var enc, dec []float64
	for _, c := range caps {
		ns := timeIt(func() {
			for i := range params {
				if resid[i] == nil {
					continue
				}
				m := float64(kernel.AccumulateMaxAbs(resid[i], c.grads[i])) * wl.opts.Sparsity
				scale[i] = float32(m)
				body[i] = kernel.EncodeTernary(resid[i], m, wl.opts.ZeroRun, body[i][:0])
			}
		})
		enc = append(enc, float64(ns)/float64(n))
		var err error
		ns = timeIt(func() {
			for i := range params {
				if resid[i] == nil {
					continue
				}
				if e := kernel.DecodeTernaryAdd(body[i], wl.opts.ZeroRun, scale[i], acc[i]); e != nil {
					err = e
				}
			}
		})
		if err != nil {
			return fmt.Errorf("probe kernel decode: %w", err)
		}
		dec = append(dec, float64(ns)/float64(n))
	}
	out["kernel.encode_ns_per_elem"] = steady(enc)
	out["kernel.decode_add_ns_per_elem"] = steady(dec)
	return nil
}

// probeCompress runs one worker's full tensor set through the codec
// contexts a node would hold, and measures the captured wires.
func probeCompress(out map[string]float64, wl *workload, params []*nn.Param, caps []captured) error {
	ctx := make([]compress.Compressor, len(params))
	grad := make([]*tensor.Tensor, len(params))
	acc := make([]*tensor.Tensor, len(params))
	wires := make([][]byte, len(params))
	elems := 0
	for i, prm := range params {
		if compressed(wl, prm) {
			o := wl.opts
			o.CodecParallelism = 1
			ctx[i] = compress.New(wl.scheme, prm.W.Shape(), o)
		} else {
			ctx[i] = compress.New(compress.SchemeNone, prm.W.Shape(), compress.Options{})
		}
		acc[i] = tensor.New(prm.W.Shape()...)
		elems += prm.W.Len()
	}
	var comp, decomp, pushBits, pullBits, zeros []float64
	for _, c := range caps {
		for i, prm := range params {
			grad[i] = tensor.FromSlice(c.grads[i], prm.W.Shape()...)
		}
		comp = append(comp, ms(timeIt(func() {
			for i := range params {
				wires[i] = ctx[i].CompressInto(grad[i], wires[i][:0])
			}
		})))
		var err error
		decomp = append(decomp, ms(timeIt(func() {
			for i := range params {
				if e := compress.DecompressAddInto(c.push[0][i], acc[i], 1); e != nil {
					err = e
				}
			}
		})))
		if err != nil {
			return fmt.Errorf("probe decompress: %w", err)
		}
		pushBytes := 0
		for w := range c.push {
			pushBytes += ps.WireBytes(c.push[w])
		}
		pushBits = append(pushBits, 8*float64(pushBytes)/float64(numWorkers*elems))
		pullBits = append(pullBits, 8*float64(ps.WireBytes(c.pull))/float64(elems))
		zero := 0
		for i := range params {
			if err := compress.DecompressInto(c.push[0][i], acc[i]); err != nil {
				return fmt.Errorf("probe zero count: %w", err)
			}
			zero += acc[i].CountZeros()
		}
		zeros = append(zeros, float64(zero)/float64(elems))
	}
	out["compress.compress_ms"] = steady(comp)
	out["compress.decompress_add_ms"] = steady(decomp)
	out["compress.push_bits_per_elem"] = steady(pushBits)
	out["compress.pull_bits_per_elem"] = steady(pullBits)
	out["compress.zero_frac"] = steady(zeros)
	return nil
}

// probeEntropy measures what the optional entropy second stage would buy
// and cost on worker 0's push set. No workload enables the stage.
func probeEntropy(out map[string]float64, caps []captured) error {
	var raw, coded, back []byte
	var ratio, encMs, decMs, lzRatio []float64
	for _, c := range caps {
		raw = transport.AppendWireSet(raw[:0], c.push[0])
		encMs = append(encMs, ms(timeIt(func() { coded = entropy.HuffmanEncodeInto(coded[:0], raw) })))
		ratio = append(ratio, float64(len(raw))/float64(len(coded)))
		var err error
		decMs = append(decMs, ms(timeIt(func() { back, err = entropy.HuffmanDecodeInto(back[:0], coded) })))
		if err != nil {
			return fmt.Errorf("probe huffman decode: %w", err)
		}
		if !bytes.Equal(back, raw) {
			return fmt.Errorf("probe huffman: round trip differs")
		}
		coded = entropy.LZEncodeInto(coded[:0], raw)
		lzRatio = append(lzRatio, float64(len(raw))/float64(len(coded)))
	}
	out["entropy.huffman_ratio"] = steady(ratio)
	out["entropy.huffman_encode_ms"] = steady(encMs)
	out["entropy.huffman_decode_ms"] = steady(decMs)
	out["entropy.lz_ratio"] = steady(lzRatio)
	return nil
}

// probeFrames times the framing of one worker's push and pull set into a
// buffer and back out: the copies and parsing the transport adds around
// the codec's bytes, without a socket.
func probeFrames(out map[string]float64, caps []captured) error {
	var payload []byte
	var buf bytes.Buffer
	var wires [][]byte
	var encMs, decMs []float64
	for _, c := range caps {
		buf.Reset()
		var err error
		encMs = append(encMs, ms(timeIt(func() {
			for _, set := range [][][]byte{c.push[0], c.pull} {
				payload = transport.AppendWireSet(payload[:0], set)
				if e := transport.WriteFrame(&buf, transport.MsgPush, payload); e != nil {
					err = e
				}
			}
		})))
		if err != nil {
			return fmt.Errorf("probe frame encode: %w", err)
		}
		fr := transport.NewFrameReader(bytes.NewReader(buf.Bytes()))
		decMs = append(decMs, ms(timeIt(func() {
			for range [2]struct{}{} {
				_, body, e := fr.ReadFrame()
				if e == nil {
					wires, _, e = transport.ParseWireSetInto(wires, body)
				}
				if e != nil {
					err = e
				}
			}
		})))
		if err != nil {
			return fmt.Errorf("probe frame decode: %w", err)
		}
	}
	out["transport.frame_encode_ms"] = steady(encMs)
	out["transport.frame_decode_ms"] = steady(decMs)
	return nil
}

// probeServer replays the captured push sets of every worker through a
// fresh ps.Job: decode-add of both pushes, then the optimizer step and
// the pull encode.
func probeServer(out map[string]float64, model *nn.Model, cfg ps.Config, caps []captured) error {
	job := ps.NewJob(model, cfg)
	var addMs, finMs []float64
	for _, c := range caps {
		job.BeginStep()
		var err error
		addMs = append(addMs, ms(timeIt(func() {
			for w := range c.push {
				sess := job.BeginPush(w)
				if e := sess.Set(c.push[w]); e != nil {
					err = e
				}
				if e := sess.End(); e != nil {
					err = e
				}
			}
		})))
		if err != nil {
			return fmt.Errorf("probe server push: %w", err)
		}
		finMs = append(finMs, ms(timeIt(func() { _, _, err = job.FinishStep() })))
		if err != nil {
			return fmt.Errorf("probe server finish: %w", err)
		}
	}
	out["ps.server_add_push_ms"] = steady(addMs)
	out["ps.server_finish_ms"] = steady(finMs)
	return nil
}
