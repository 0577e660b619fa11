package region

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"threelc/internal/compress"
	"threelc/internal/nn"
	"threelc/internal/opt"
	"threelc/internal/ps"
	"threelc/internal/tensor"
)

// recInner is a recording fake of the global tier: it captures every
// forwarded push verbatim and returns canned pulls, so tests can compare
// what crossed the region boundary byte for byte.
type recInner struct {
	tensors int
	pushIDs []int
	pushes  [][][]byte // per BeginPush, wire copies indexed by tensor
	pulls   [][]byte
	state   []byte // canned AppendState payload
	got     []byte // what RestoreState received
}

func (f *recInner) BeginStep() {
	f.pushIDs = f.pushIDs[:0]
	f.pushes = f.pushes[:0]
}

func (f *recInner) BeginPush(workerID int) ps.PushSession {
	f.pushIDs = append(f.pushIDs, workerID)
	f.pushes = append(f.pushes, make([][]byte, f.tensors))
	return &recSession{wires: f.pushes[len(f.pushes)-1]}
}

func (f *recInner) FinishStep() ([][]byte, time.Duration, error) {
	return f.pulls, 0, nil
}

func (f *recInner) AppendState(dst []byte) []byte { return append(dst, f.state...) }

func (f *recInner) RestoreState(src []byte) error {
	f.got = append(f.got[:0], src...)
	if !bytes.Equal(src, f.state) {
		return fmt.Errorf("recInner: state mismatch")
	}
	return nil
}

type recSession struct{ wires [][]byte }

func (s *recSession) Set(wires [][]byte) error {
	for i, w := range wires {
		if err := s.Tensor(i, w); err != nil {
			return err
		}
	}
	return nil
}

func (s *recSession) Tensor(i int, wire []byte) error {
	if i < 0 || i >= len(s.wires) {
		return fmt.Errorf("recSession: tensor %d out of range", i)
	}
	if wire == nil {
		s.wires[i] = nil
		return nil
	}
	s.wires[i] = append([]byte(nil), wire...)
	return nil
}

func (s *recSession) End() error { return nil }

func testParams(shapes [][]int, noCompress []bool) []*nn.Param {
	params := make([]*nn.Param, len(shapes))
	for i, sh := range shapes {
		params[i] = &nn.Param{
			Name:       fmt.Sprintf("t%d", i),
			W:          tensor.New(sh...),
			NoCompress: noCompress != nil && noCompress[i],
		}
	}
	return params
}

func randWires(t *testing.T, seed uint64, tensors, n int) [][]byte {
	t.Helper()
	rng := tensor.NewRNG(seed)
	wires := make([][]byte, tensors)
	for i := range wires {
		wires[i] = make([]byte, n+i*3)
		for j := range wires[i] {
			wires[i][j] = byte(rng.Uint64())
		}
	}
	return wires
}

// TestExactModePassThrough pins exact mode as a pure relay: every worker
// wire reaches the inner tier verbatim, in worker order, and the WAN
// accounting is the framed bundle size per region.
func TestExactModePassThrough(t *testing.T) {
	params := testParams([][]int{{8}, {5}}, nil)
	inner := &recInner{tensors: 2, pulls: [][]byte{{9, 9, 9}, {7}}}
	tier, err := NewTier(inner, params, Config{Regions: 2, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}

	perWorker := make([][][]byte, 4)
	for w := range perWorker {
		perWorker[w] = randWires(t, uint64(w+1), 2, 10)
	}

	tier.BeginStep()
	for w := 0; w < 4; w++ {
		sess := tier.BeginPush(w)
		for i, wire := range perWorker[w] {
			if err := sess.Tensor(i, wire); err != nil {
				t.Fatal(err)
			}
		}
		if err := sess.End(); err != nil {
			t.Fatal(err)
		}
	}
	pulls, _, err := tier.FinishStep()
	if err != nil {
		t.Fatal(err)
	}

	if len(inner.pushIDs) != 4 {
		t.Fatalf("inner saw %d pushes, want 4", len(inner.pushIDs))
	}
	for w := 0; w < 4; w++ {
		if inner.pushIDs[w] != w {
			t.Fatalf("push order %v not worker order", inner.pushIDs)
		}
		for i := range perWorker[w] {
			if !bytes.Equal(inner.pushes[w][i], perWorker[w][i]) {
				t.Fatalf("worker %d tensor %d not forwarded verbatim", w, i)
			}
		}
	}
	if len(pulls) != 2 || !bytes.Equal(pulls[0], inner.pulls[0]) {
		t.Fatal("pulls not relayed from inner tier")
	}

	push, pull := tier.WANBytes()
	for r := 0; r < 2; r++ {
		want := 0
		for w := 2 * r; w < 2*r+2; w++ {
			for _, wire := range perWorker[w] {
				want += 4 + len(wire)
			}
		}
		if push[r] != want {
			t.Errorf("region %d WAN push bytes %d, want framed bundle %d", r, push[r], want)
		}
	}
	wantPull := 0
	for _, w := range inner.pulls {
		wantPull += 4 + len(w)
	}
	if pull[0] != wantPull || pull[1] != wantPull {
		t.Errorf("WAN pull bytes %v, want %d per region", pull, wantPull)
	}
}

// TestRecompressMatchesManual pins the fused re-encode against a manual
// reference: decode-accumulate each region's worker wires, scale by R/W,
// compress with an identically seeded context — the forwarded stream must
// match byte for byte.
func TestRecompressMatchesManual(t *testing.T) {
	shapes := [][]int{{64}, {4, 8}}
	params := testParams(shapes, nil)
	cfg := Config{
		Regions: 2, Workers: 4, Recompress: true,
		Scheme:           compress.SchemeThreeLC,
		Opts:             compress.Options{Sparsity: 1.0, ZeroRun: true},
		MinCompressElems: 1,
		Parallelism:      1,
	}
	inner := &recInner{tensors: 2, pulls: [][]byte{{1}, {2}}}
	tier, err := NewTier(inner, params, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Per-worker gradient wires from worker-owned 3LC contexts.
	rng := tensor.NewRNG(42)
	wires := make([][][]byte, 4) // [worker][tensor]
	grads := make([][]*tensor.Tensor, 4)
	for w := 0; w < 4; w++ {
		wires[w] = make([][]byte, 2)
		grads[w] = make([]*tensor.Tensor, 2)
		for i, sh := range shapes {
			g := tensor.New(sh...)
			for j := range g.Data() {
				g.Data()[j] = float32(rng.Norm())
			}
			grads[w][i] = g
			c := compress.New(cfg.Scheme, sh, compress.Options{Sparsity: 1.0, ZeroRun: true, Seed: uint64(100*w + i)})
			wires[w][i] = c.CompressInto(g, nil)
		}
	}

	tier.BeginStep()
	for w := 0; w < 4; w++ {
		sess := tier.BeginPush(w)
		if err := sess.Set(wires[w]); err != nil {
			t.Fatal(err)
		}
		sess.End()
	}
	if _, _, err := tier.FinishStep(); err != nil {
		t.Fatal(err)
	}

	if len(inner.pushIDs) != 2 || inner.pushIDs[0] != 0 || inner.pushIDs[1] != 1 {
		t.Fatalf("inner saw pushes %v, want one per region in order", inner.pushIDs)
	}
	for r := 0; r < 2; r++ {
		for i, sh := range shapes {
			sum := tensor.New(sh...)
			for k, w := range []int{2 * r, 2*r + 1} {
				var err error
				if k == 0 {
					err = compress.DecompressFirstAddInto(wires[w][i], sum, 1)
				} else {
					err = compress.DecompressAddInto(wires[w][i], sum, 1)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			sum.Scale(float32(2) / float32(4))
			o := cfg.Opts
			o.Seed ^= 0x524547 ^ uint64(r)<<40 ^ uint64(i)<<16
			o.CodecParallelism = 1
			ref := compress.New(cfg.Scheme, sh, o)
			want := ref.CompressInto(sum, nil)
			if !bytes.Equal(inner.pushes[r][i], want) {
				t.Errorf("region %d tensor %d re-encoded wire differs from manual reference", r, i)
			}
		}
	}
}

// TestRecompressNoCompressRelay pins the batch-norm path: the owner-only
// tensor's wire is relayed verbatim from worker 0 by region 0 and sent as
// nil by every other region; bytes in a non-owner's slot are refused, and
// so is a step the owner pushed nothing in.
func TestRecompressNoCompressRelay(t *testing.T) {
	params := testParams([][]int{{32}, {6}}, []bool{false, true})
	cfg := Config{
		Regions: 2, Workers: 4, Recompress: true,
		Scheme:           compress.SchemeThreeLC,
		Opts:             compress.Options{Sparsity: 1.0, ZeroRun: true},
		MinCompressElems: 1,
		Parallelism:      1,
	}
	inner := &recInner{tensors: 2, pulls: [][]byte{{1}, {2}}}
	tier, err := NewTier(inner, params, cfg)
	if err != nil {
		t.Fatal(err)
	}

	ncWire := []byte{0xDE, 0xAD, 0xBE, 0xEF, 0x01}
	comp := compress.New(cfg.Scheme, []int{32}, compress.Options{Sparsity: 1.0, ZeroRun: true})
	g := tensor.New(32)
	rng := tensor.NewRNG(3)
	for j := range g.Data() {
		g.Data()[j] = float32(rng.Norm())
	}
	wire0 := comp.CompressInto(g, nil)

	tier.BeginStep()
	for w := 0; w < 4; w++ {
		sess := tier.BeginPush(w)
		if err := sess.Tensor(0, wire0); err != nil {
			t.Fatal(err)
		}
		if w == 0 {
			if err := sess.Tensor(1, ncWire); err != nil {
				t.Fatal(err)
			}
		} else {
			err := sess.Tensor(1, []byte{0xFF})
			if err == nil || !strings.Contains(err.Error(), `"t1"`) || !strings.Contains(err.Error(), fmt.Sprintf("worker %d ", w)) {
				t.Fatalf("worker %d's byte in the owner-only slot: %v, want a refusal naming tensor and worker", w, err)
			}
			if err := sess.Tensor(1, nil); err != nil {
				t.Fatal(err)
			}
		}
		sess.End()
	}
	if _, _, err := tier.FinishStep(); err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(inner.pushes[0][1], ncWire) {
		t.Errorf("region 0 forwarded %x for the exempt tensor, want worker 0's wire", inner.pushes[0][1])
	}
	if inner.pushes[1][1] != nil {
		t.Errorf("region 1 forwarded %x for the exempt tensor, want nil", inner.pushes[1][1])
	}

	// A step without the owner's push must not relay the last step's wire.
	tier.BeginStep()
	for w := 0; w < 4; w++ {
		sess := tier.BeginPush(w)
		if err := sess.Tensor(0, wire0); err != nil {
			t.Fatal(err)
		}
		sess.End()
	}
	_, _, err = tier.FinishStep()
	if err == nil || !strings.Contains(err.Error(), `"t1"`) || !strings.Contains(err.Error(), "worker 0") {
		t.Fatalf("step without the owner's push: %v, want an error naming tensor and owner", err)
	}
}

// TestTierStateRoundTrip pins checkpoint fidelity: a restored tier
// continues with byte-identical re-encoded streams (the region contexts'
// error-accumulation buffers survive the round trip).
func TestTierStateRoundTrip(t *testing.T) {
	shapes := [][]int{{48}}
	cfg := Config{
		Regions: 2, Workers: 4, Recompress: true,
		Scheme:           compress.SchemeThreeLC,
		Opts:             compress.Options{Sparsity: 1.5, ZeroRun: true},
		MinCompressElems: 1,
		Parallelism:      1,
	}
	innerState := []byte("inner-tier-blob")
	newTier := func() (*Tier, *recInner) {
		inner := &recInner{tensors: 1, pulls: [][]byte{{1}}, state: innerState}
		tier, err := NewTier(inner, testParams(shapes, nil), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return tier, inner
	}
	a, innerA := newTier()

	step := func(tier *Tier, seed uint64) {
		t.Helper()
		rng := tensor.NewRNG(seed)
		g := tensor.New(48)
		tier.BeginStep()
		for w := 0; w < 4; w++ {
			for j := range g.Data() {
				g.Data()[j] = float32(rng.Norm())
			}
			c := compress.New(cfg.Scheme, shapes[0], compress.Options{Sparsity: 1.5, ZeroRun: true, Seed: seed + uint64(w)})
			sess := tier.BeginPush(w)
			if err := sess.Tensor(0, c.CompressInto(g, nil)); err != nil {
				t.Fatal(err)
			}
			sess.End()
		}
		if _, _, err := tier.FinishStep(); err != nil {
			t.Fatal(err)
		}
	}

	step(a, 10) // builds residual state in the region contexts
	blob := a.AppendState(nil)

	b, innerB := newTier()
	if err := b.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(innerB.got, innerState) {
		t.Fatal("inner state not round-tripped")
	}

	step(a, 20)
	step(b, 20)
	for r := 0; r < 2; r++ {
		if !bytes.Equal(innerA.pushes[r][0], innerB.pushes[r][0]) {
			t.Errorf("region %d re-encoded stream diverges after restore", r)
		}
	}

	// Malformed inputs must error, never panic.
	for name, src := range map[string][]byte{
		"empty":          nil,
		"truncated":      blob[:len(blob)-3],
		"trailing":       append(append([]byte(nil), blob...), 0xFF),
		"corrupt-header": append([]byte{0xFF, 0xFF, 0xFF, 0xFF}, blob...),
	} {
		fresh, _ := newTier()
		if err := fresh.RestoreState(src); err == nil {
			t.Errorf("%s state accepted", name)
		}
	}
}

// TestTierValidationAndErrors pins the constructor and push error surface.
func TestTierValidationAndErrors(t *testing.T) {
	params := testParams([][]int{{8}}, nil)
	inner := &recInner{tensors: 1, pulls: [][]byte{{1}}}
	if _, err := NewTier(inner, params, Config{Regions: 0, Workers: 4}); err == nil {
		t.Error("Regions 0 accepted")
	}
	if _, err := NewTier(inner, params, Config{Regions: 5, Workers: 4}); err == nil {
		t.Error("more regions than workers accepted")
	}

	cfg := Config{
		Regions: 2, Workers: 4, Recompress: true,
		Scheme: compress.SchemeThreeLC, Opts: compress.Options{Sparsity: 1.0},
		MinCompressElems: 1, Parallelism: 1,
	}
	tier, err := NewTier(inner, params, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tier.BeginStep()
	sess := tier.BeginPush(0)
	if err := sess.Tensor(5, []byte{1}); err == nil {
		t.Error("out-of-range tensor index accepted")
	}
	if err := sess.Set([][]byte{{1}, {2}}); err == nil {
		t.Error("wrong-arity wire set accepted")
	}
	sess.End()
	// No worker pushed tensor 0 with a decodable wire: FinishStep must
	// refuse to forward an undefined region sum.
	if _, _, err := tier.FinishStep(); err == nil {
		t.Error("FinishStep accepted a step with missing pushes")
	}
}

// TestRegionOf pins the contiguous assignment (chief stays in region 0).
func TestRegionOf(t *testing.T) {
	if RegionOf(0, 10, 3) != 0 {
		t.Error("chief not in region 0")
	}
	counts := make([]int, 3)
	last := 0
	for w := 0; w < 10; w++ {
		r := RegionOf(w, 10, 3)
		if r < last {
			t.Fatalf("assignment not contiguous at worker %d", w)
		}
		last = r
		counts[r]++
	}
	for r, c := range counts {
		if c < 3 || c > 4 {
			t.Errorf("region %d has %d workers, want balanced 3-4", r, c)
		}
	}
}

// BenchmarkHierarchicalPushPull measures a full hierarchical step against
// a real parameter-server inner tier: 4 workers in 2 regions, fused
// recompress. Steady state must be allocation-free (gated in CI).
func BenchmarkHierarchicalPushPull(b *testing.B) {
	model := nn.NewMLP(256, []int{64}, 8, 1)
	psCfg := ps.Config{
		Scheme:           compress.SchemeThreeLC,
		Opts:             compress.Options{Sparsity: 1.0, ZeroRun: true},
		Workers:          4,
		MinCompressElems: 1,
		Parallelism:      1,
		Optimizer:        opt.DefaultSGDConfig(4, 1000),
	}
	inner := ps.NewJob(model, psCfg)
	cfg := Config{
		Regions: 2, Workers: 4, Recompress: true,
		Scheme:           compress.SchemeThreeLC,
		Opts:             compress.Options{Sparsity: 1.0, ZeroRun: true},
		MinCompressElems: 1,
		Parallelism:      1,
	}
	tier, err := NewTier(inner, model.Params(), cfg)
	if err != nil {
		b.Fatal(err)
	}

	params := model.Params()
	rng := tensor.NewRNG(7)
	wires := make([][][]byte, 4)
	var wireBytes int
	for w := range wires {
		wires[w] = make([][]byte, len(params))
		for i, p := range params {
			g := tensor.New(p.W.Shape()...)
			for j := range g.Data() {
				g.Data()[j] = float32(rng.Norm())
			}
			if !ps.Pushes(w, p) {
				continue // the empty wire; drawn all the same, so the other wires are the ones they were
			}
			c := compress.New(cfg.Scheme, p.W.Shape(), compress.Options{Sparsity: 1.0, ZeroRun: true, Seed: uint64(w*31 + i)})
			wires[w][i] = c.CompressInto(g, nil)
			wireBytes += len(wires[w][i])
		}
	}

	step := func() {
		tier.BeginStep()
		for w := 0; w < 4; w++ {
			sess := tier.BeginPush(w)
			if err := sess.Set(wires[w]); err != nil {
				b.Fatal(err)
			}
			if err := sess.End(); err != nil {
				b.Fatal(err)
			}
		}
		if _, _, err := tier.FinishStep(); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		step() // reach buffer steady state before measuring
	}
	b.SetBytes(int64(wireBytes))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
	push, pull := tier.WANBytes()
	wan := 0
	for r := range push {
		wan += push[r] + pull[r]
	}
	b.ReportMetric(float64(wan), "wan-bytes/step")
}
