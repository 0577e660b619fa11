package ps

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"threelc/internal/compress"
	"threelc/internal/kernel"
	"threelc/internal/nn"
	"threelc/internal/tensor"
)

// TestWorkerGIsErrorBuffer holds a Worker, whose 3LC push contexts use the
// replica's G as their error buffer, to a reference built the old way — a
// replica whose G is zeroed every step and a context per tensor that owns
// its buffer, fed through CompressInto — bit for bit: every push wire,
// every residual and every loss, over 50 steps of an MLP and of a
// MicroResNet at s = 1.75, with and without zero-run encoding. The
// worker's replica starts with every G dirty, so NewWorker must start its
// contexts at e = 0, and each 3LC tensor's G must be its push context's
// buffer. The reference's weights follow the worker's, so a G carried or
// zeroed where it should not be shows as a differing loss or wire.
func TestWorkerGIsErrorBuffer(t *testing.T) {
	const steps = 50
	models := []struct {
		name  string
		build func() *nn.Model
		in    []int
	}{
		{"mlp", func() *nn.Model { return nn.NewMLP(48, []int{64, 32}, 10, 3) }, []int{48}},
		{"microresnet", func() *nn.Model {
			return nn.NewMicroResNet(nn.MicroResNetConfig{InChannels: 3, ImageSize: 8, StageChannels: []int{4, 8}, BlocksPerStage: 1, Classes: 10, Seed: 3})
		}, []int{3, 8, 8}},
	}
	for _, mc := range models {
		for _, zre := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/zre=%v", mc.name, zre), func(t *testing.T) {
				opts := compress.Options{Sparsity: 1.75, ZeroRun: zre}
				cfg := testConfig(compress.SchemeThreeLC, opts, 1)
				global := mc.build()
				job := NewJob(global, cfg)
				replica, ref := mc.build(), mc.build()
				replica.CopyParamsFrom(global)
				ref.CopyParamsFrom(global)
				for _, p := range replica.Params() {
					p.G.Fill(float32(math.Inf(-1)))
				}
				w := NewWorker(0, replica, cfg)

				refParams := ref.Params()
				refCtx := make([]compress.Compressor, len(refParams))
				carried := 0
				for i, p := range replica.Params() {
					pa := w.preAcc[i]
					if pa == nil {
						if cfg.Scheme == compress.SchemeThreeLC && cfg.Compresses(p) {
							t.Fatalf("%s: a 3LC tensor without a buffer-sharing context", p.Name)
						}
						continue
					}
					carried++
					if &p.G.Data()[0] != &pa.AccData()[0] || len(pa.AccData()) != p.G.Len() {
						t.Fatalf("%s: G is not its push context's error buffer", p.Name)
					}
					if i := firstNonZero(p.G.Data()); i >= 0 {
						t.Fatalf("%s: a new worker's error buffer holds %x at %d, want +0", p.Name, math.Float32bits(p.G.Data()[i]), i)
					}
					refCtx[i] = compress.New(cfg.Scheme, p.W.Shape(), opts)
				}
				if carried == 0 {
					t.Fatal("no tensor shares its G with its push context")
				}

				rng := tensor.NewRNG(17)
				x := tensor.New(append([]int{4}, mc.in...)...)
				labels := make([]int, 4)
				var refWire []byte
				for step := 0; step < steps; step++ {
					tensor.FillNormal(x, 1, rng)
					for k := range labels {
						labels[k] = rng.Intn(10)
					}
					loss := replica.TrainStep(x, labels)
					if refLoss := ref.TrainStep(x, labels); math.Float64bits(loss) != math.Float64bits(refLoss) {
						t.Fatalf("step %d: loss %v, reference %v", step, loss, refLoss)
					}
					wires, _ := w.CompressGrads()
					for i, ctx := range refCtx {
						if ctx == nil {
							continue
						}
						name := refParams[i].Name
						refWire = ctx.CompressInto(refParams[i].G, refWire[:0])
						if !bytes.Equal(wires[i], refWire) {
							t.Fatalf("step %d: %s push wire differs from the reference's", step, name)
						}
						resid := ctx.(compress.PreAccumulator).AccData()
						for j, v := range replica.Params()[i].G.Data() {
							if math.Float32bits(v) != math.Float32bits(resid[j]) {
								t.Fatalf("step %d: %s residual[%d] = %x, reference %x", step, name, j, math.Float32bits(v), math.Float32bits(resid[j]))
							}
						}
					}
					job.BeginStep()
					if _, err := job.AddPush(0, wires); err != nil {
						t.Fatal(err)
					}
					pull, _, err := job.FinishStep()
					if err != nil {
						t.Fatal(err)
					}
					if _, err := w.ApplyPull(pull); err != nil {
						t.Fatal(err)
					}
					ref.CopyParamsFrom(replica)
				}
			})
		}
	}
}

// firstNonZero returns the first index of v not +0 bit for bit, or -1.
func firstNonZero(v []float32) int {
	for i, x := range v {
		if math.Float32bits(x) != 0 {
			return i
		}
	}
	return -1
}

// TestFloat32PushIsG holds a float32 worker's push wires to G's memory:
// every tensor the worker pushes as its gradient is pushed as a wire whose
// body is a view of G, the same memory, and on each of several steps the
// wire is byte for byte the scheme byte and kernel.AppendRaw of G — through
// CompressGrads and CompressGradsStream alike, over gradients that carry
// −0, ±Inf and NaNs with payloads. An owner-only tensor is the owner's
// update, a wire of its own, and the empty wire on the other worker.
func TestFloat32PushIsG(t *testing.T) {
	specials := []uint32{0x80000000, 0x7fc00000, 0xffc00001, 0x7f800001, 0xff800000, 0x00000001}
	cfg := testConfig(compress.SchemeNone, compress.Options{}, 2)
	for _, mc := range []struct {
		name  string
		build func() *nn.Model
	}{
		{"mlp", func() *nn.Model { return nn.NewMLP(48, []int{64, 32}, 10, 3) }},
		{"microresnet", func() *nn.Model {
			return nn.NewMicroResNet(nn.MicroResNetConfig{InChannels: 3, ImageSize: 8, StageChannels: []int{4, 8}, BlocksPerStage: 1, Classes: 10, Seed: 3})
		}},
	} {
		for id := range cfg.Workers {
			t.Run(fmt.Sprintf("%s/worker%d", mc.name, id), func(t *testing.T) {
				m := mc.build()
				w := NewWorker(id, m, cfg)
				rng := tensor.NewRNG(uint64(11 + id))
				check := func(step int, how string, i int, wire []byte) {
					t.Helper()
					p := m.Params()[i]
					switch {
					case !Pushes(id, p):
						if len(wire) != 0 {
							t.Fatalf("step %d %s: %s, which worker %d does not push, has a %d-byte wire", step, how, p.Name, id, len(wire))
						}
					case OwnerOnly(p):
						if len(wire) > 1 && &wire[1] == &kernel.RawView(p.G.Data())[0] {
							t.Fatalf("step %d %s: the owner's update of %s is a view of its gradient", step, how, p.Name)
						}
					default:
						g := kernel.RawView(p.G.Data())
						if len(wire) != 1+len(g) || &wire[1] != &g[0] {
							t.Fatalf("step %d %s: %s's push wire (%d bytes) does not share G's memory", step, how, p.Name, len(wire))
						}
						if want := append([]byte{byte(compress.SchemeNone)}, kernel.AppendRaw(nil, p.G.Data())...); !bytes.Equal(wire, want) {
							t.Fatalf("step %d %s: %s's push wire differs from the scheme byte and AppendRaw of G", step, how, p.Name)
						}
					}
				}
				for step := 0; step < 4; step++ {
					m.ZeroGrad()
					for _, p := range m.Params() {
						for j := range p.G.Data() {
							p.G.Data()[j] = float32(rng.Norm())
							if j%7 == step {
								p.G.Data()[j] = math.Float32frombits(specials[(j+step)%len(specials)])
							}
						}
					}
					wires, _ := w.CompressGrads()
					for i, wire := range wires {
						check(step, "CompressGrads", i, wire)
					}
					emitted := make([][]byte, len(wires))
					w.CompressGradsStream(func(i int, wire []byte) { emitted[i] = wire })
					for i, wire := range emitted {
						check(step, "CompressGradsStream", i, wire)
					}
				}
			})
		}
	}

	// A G replaced after NewWorker is not the memory the wire views: the
	// push refuses it rather than send the old G's bytes.
	t.Run("replaced G", func(t *testing.T) {
		m := nn.NewMLP(48, []int{64, 32}, 10, 3)
		w := NewWorker(0, m, cfg)
		p := m.Params()[0]
		p.G = tensor.New(p.G.Shape()...)
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), p.Name) {
				t.Fatalf("CompressGrads over a replaced G: recovered %v, want a panic naming %s", r, p.Name)
			}
		}()
		w.CompressGrads()
	})
}
