package entropy_test

import (
	"math"
	"testing"

	"threelc/internal/compress"
	"threelc/internal/data"
	"threelc/internal/entropy"
	"threelc/internal/nn"
	"threelc/internal/opt"
	"threelc/internal/ps"
	"threelc/internal/tensor"
	"threelc/internal/train"
	"threelc/internal/transport"
)

// quarticWire builds the workload the paper benchmarks entropy coders on
// (§5.3): the zero-run-encoded quartic stream of a 3LC-compressed
// gradient tensor. Its byte distribution is skewed (runs trimmed, but the
// quartic alphabet stays non-uniform), which is where a second-stage
// coder earns its keep.
func quarticWire(n int) []byte {
	rng := tensor.NewRNG(9)
	in := tensor.New(n)
	tensor.FillNormal(in, 0.01, rng)
	ctx := compress.New(compress.SchemeThreeLC, []int{n}, compress.Options{Sparsity: 1.0, ZeroRun: true})
	return ctx.CompressInto(in, nil)
}

// trainedWireSet is what the paper's row puts on the wire: the push wire
// set (transport.AppendWireSet) worker 0, the owner, sends at the last of 24
// steps of the end-to-end benchmark's `wan-3lc` workload — a
// 768-1024-1024-10 MLP, two workers, batch 4, 3LC s = 1.75 with error
// feedback since step 0, the four batch-norm vectors and the head bias
// exempt, the batch-norm vectors' slots the owner's update — generated
// here, from seed 1, and read off the tier as it is pushed.
func trainedWireSet(tb testing.TB) []byte {
	dcfg := data.DefaultConfig()
	dcfg.Train, dcfg.Test, dcfg.Seed = 1000, 300, 1
	design := train.Design{Name: "3LC (s=1.75)", Scheme: compress.SchemeThreeLC,
		Opts: compress.Options{Sparsity: 1.75, ZeroRun: true}}
	const steps, workers = 24, 2
	sgd := opt.TunedSGDConfig(workers, steps)
	rec := &ownerPushes{}
	_, err := train.Run(train.Config{
		Design: design, Workers: workers, BatchPerWorker: 4, Steps: steps, Data: dcfg,
		BuildModel: func() *nn.Model {
			return nn.NewMLP(dcfg.C*dcfg.H*dcfg.W, []int{1024, 1024}, dcfg.Classes, 1)
		},
		FlatInput: true, Optimizer: &sgd, Seed: 1,
		Tier: func(global *nn.Model, cfg ps.Config) (ps.Tier, error) {
			rec.Tier = ps.NewJob(global, cfg)
			return rec, nil
		},
	})
	if err != nil {
		tb.Fatal(err)
	}
	return transport.AppendWireSet(nil, rec.push)
}

// ownerPushes is an in-process tier that keeps a copy of the owner's push
// of the latest step, wire by wire, as the tier is handed it.
type ownerPushes struct {
	ps.Tier
	push [][]byte
}

func (t *ownerPushes) BeginPush(worker int) ps.PushSession {
	s := t.Tier.BeginPush(worker)
	if worker != ps.Owner {
		return s
	}
	return &ownerPush{PushSession: s, t: t}
}

// ownerPush is the owner's push session of one step, copied on its way in.
type ownerPush struct {
	ps.PushSession
	t *ownerPushes
}

func (s *ownerPush) Set(wires [][]byte) error {
	for i, w := range wires {
		s.keep(i, w)
	}
	return s.PushSession.Set(wires)
}

func (s *ownerPush) Tensor(i int, wire []byte) error {
	s.keep(i, wire)
	return s.PushSession.Tensor(i, wire)
}

func (s *ownerPush) keep(i int, wire []byte) {
	for len(s.t.push) <= i {
		s.t.push = append(s.t.push, nil)
	}
	s.t.push[i] = append(s.t.push[i][:0], wire...)
}

// empiricalEntropy is the order-0 and order-1 empirical entropy of b in
// bits per byte: what a coder of each byte alone, and of each byte given
// the one before it, spends at best. 8/h is the ceiling of such a coder's
// ratio on b — of any, not only the two here.
func empiricalEntropy(b []byte) (h0, h1 float64) {
	var c0 [256]float64
	c1 := new([256][256]float64) // c1[a][x]: x follows a
	for i, x := range b {
		c0[x]++
		if i > 0 {
			c1[b[i-1]][x]++
		}
	}
	n := float64(len(b))
	for a := range c0 {
		if c0[a] > 0 {
			h0 -= c0[a] / n * math.Log2(c0[a]/n)
		}
		row := 0.0
		for _, c := range c1[a] {
			row += c
		}
		for _, c := range c1[a] {
			if c > 0 {
				h1 -= c / (n - 1) * math.Log2(c/row)
			}
		}
	}
	return h0, h1
}

// BenchmarkEntropyStage measures the coders over a 1M-element 3LC quartic
// wire: steady-state encode/decode with recycled buffers must be
// allocation-free, and the encoders report the achieved compression ratio
// (raw/coded) as a custom metric — CI floors it at 1.1x for Huffman. The
// trained/ rows run the same coders over trainedWireSet: what is left for a
// general-purpose coder on the wire the paper's row moves. Every row also
// reports its input's h0 and h1 (empiricalEntropy).
func BenchmarkEntropyStage(b *testing.B) {
	benchEntropyStage(b, "", quarticWire(1<<20))
	benchEntropyStage(b, "trained/", trainedWireSet(b))
}

func benchEntropyStage(b *testing.B, prefix string, raw []byte) {
	h0, h1 := empiricalEntropy(raw)
	bench := func(name string, encode func(dst, src []byte) []byte,
		decode func(dst, src []byte) ([]byte, error)) {
		name = prefix + name
		coded := encode(nil, raw)
		report := func(b *testing.B) {
			b.ReportMetric(h0, "h0-bits/byte")
			b.ReportMetric(h1, "h1-bits/byte")
		}
		b.Run(name+"-encode", func(b *testing.B) {
			buf := encode(nil, raw)
			b.SetBytes(int64(len(raw)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = encode(buf[:0], raw)
			}
			b.ReportMetric(float64(len(raw))/float64(len(buf)), "ratio")
			report(b)
		})
		b.Run(name+"-decode", func(b *testing.B) {
			buf, err := decode(nil, coded)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(raw)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf, err = decode(buf[:0], coded)
				if err != nil {
					b.Fatal(err)
				}
			}
			report(b)
		})
	}
	bench("huffman", entropy.HuffmanEncodeInto, entropy.HuffmanDecodeInto)
	bench("lz", entropy.LZEncodeInto, entropy.LZDecodeInto)
}
