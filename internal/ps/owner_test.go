package ps

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"threelc/internal/compress"
	"threelc/internal/kernel"
	"threelc/internal/nn"
	"threelc/internal/opt"
	"threelc/internal/tensor"
)

// trainOnce gives every worker a gradient: one TrainStep on a batch of its
// own.
func trainOnce(ws []*Worker) {
	for _, w := range ws {
		rng := tensor.NewRNG(uint64(w.ID) + 21)
		x := tensor.New(5, 8)
		tensor.FillNormal(x, 1, rng)
		w.Model.TrainStep(x, []int{0, 1, 2, 0, 1})
	}
}

// rawLen is the length of a tensor's float32 wire: a scheme byte and four
// bytes an element.
func rawLen(p *nn.Param) int { return 1 + 4*p.W.Len() }

// rawWire is t on the float32 wire.
func rawWire(t *tensor.Tensor) []byte {
	return kernel.AppendRaw([]byte{byte(compress.SchemeNone)}, t.Data())
}

// exemptWire holds one exempt tensor's wire to what compress.NewExempt
// promises: lossless float32 — it decodes to want, the gradient or the
// owner's update, bit for bit — that is the raw wire itself under the
// float32 design and under every other design the packed wire, or the raw
// one where packing would not be shorter.
func exemptWire(t *testing.T, design compress.Scheme, p *nn.Param, wire []byte, want []float32) {
	t.Helper()
	switch {
	case len(wire) == 0:
		t.Errorf("exempt %s: nothing on the wire", p.Name)
		return
	case design == compress.SchemeNone || len(wire) == rawLen(p):
		if len(wire) != rawLen(p) || compress.Scheme(wire[0]) != compress.SchemeNone {
			t.Errorf("exempt %s is %d bytes on the wire with scheme byte %d, want %d raw", p.Name, len(wire), wire[0], rawLen(p))
		}
	case len(wire) > rawLen(p) || compress.Scheme(wire[0]) != compress.SchemePacked32:
		t.Errorf("exempt %s is %d bytes on the wire with scheme byte %d, want packed and under %d", p.Name, len(wire), wire[0], rawLen(p))
	}
	got := tensor.New(p.W.Shape()...)
	if err := compress.DecompressInto(wire, got); err != nil {
		t.Errorf("exempt %s: %v", p.Name, err)
		return
	}
	for i, v := range got.Data() {
		if math.Float32bits(v) != math.Float32bits(want[i]) {
			t.Errorf("exempt %s: element %d is %x on the wire, %x pushed", p.Name, i, math.Float32bits(v), math.Float32bits(want[i]))
			return
		}
	}
}

// TestOwnerOnlyTensorsHaveOnePusher holds both compressors to Pushes for
// every design and at 1, 2 and the paper's 10 workers: a tensor with an
// owner is on the owner's wire set, its update lossless and never longer
// than raw, and on nobody else's at all; an exempt tensor without one is
// on everybody's, its gradient held to the same.
func TestOwnerOnlyTensorsHaveOnePusher(t *testing.T) {
	whole := func(w *Worker) [][]byte { wires, _ := w.CompressGrads(); return wires }
	streamed := func(w *Worker) [][]byte {
		var mu sync.Mutex
		emitted := make([][]byte, len(w.params))
		seen := 0
		wires, _ := w.CompressGradsStream(func(i int, wire []byte) {
			mu.Lock()
			defer mu.Unlock()
			emitted[i] = append([]byte{}, wire...)
			seen++
		})
		if seen != len(wires) {
			t.Fatalf("worker %d streamed %d of %d tensors", w.ID, seen, len(wires))
		}
		for i := range wires {
			if string(emitted[i]) != string(wires[i]) {
				t.Fatalf("worker %d tensor %d: streamed %d bytes, returned %d", w.ID, i, len(emitted[i]), len(wires[i]))
			}
		}
		return wires
	}
	for _, sc := range designs {
		for _, workers := range []int{1, 2, 10} {
			for _, c := range []struct {
				name string
				comp func(w *Worker) [][]byte
			}{{"CompressGrads", whole}, {"CompressGradsStream", streamed}} {
				t.Run(fmt.Sprintf("%s/%d workers/%s", sc.name, workers, c.name), func(t *testing.T) {
					_, ws := setup(sc.s, sc.o, workers)
					cfg := testConfig(sc.s, sc.o, workers)
					trainOnce(ws)
					owned := 0
					for _, w := range ws {
						wires := c.comp(w)
						for i, p := range w.params {
							switch {
							case OwnerOnly(p) && w.ID != Owner:
								if len(wires[i]) != 0 {
									t.Errorf("worker %d sends %d bytes of %s, which worker %d owns", w.ID, len(wires[i]), p.Name, Owner)
								}
							case OwnerOnly(p):
								owned++
								exemptWire(t, sc.s, p, wires[i], w.own[i].delta.Data())
							case !cfg.Compresses(p):
								exemptWire(t, sc.s, p, wires[i], p.G.Data())
							}
						}
					}
					if owned == 0 {
						t.Fatal("the model has no owner-only tensor")
					}
				})
			}
		}
	}
}

// pushPaths are the three ways a wire reaches a Job: the whole-set AddPush,
// a session's Set, and a session's per-tensor stream. Each pushes worker's
// wire set and ends the push.
var pushPaths = []struct {
	name string
	push func(j *Job, worker int, wires [][]byte) error
}{
	{"AddPush", func(j *Job, worker int, wires [][]byte) error {
		_, err := j.AddPush(worker, wires)
		return err
	}},
	{"Set", func(j *Job, worker int, wires [][]byte) error {
		s := j.BeginPush(worker)
		if err := s.Set(wires); err != nil {
			return err
		}
		return s.End()
	}},
	{"Tensor", func(j *Job, worker int, wires [][]byte) error {
		s := j.BeginPush(worker)
		for i, w := range wires {
			if err := s.Tensor(i, w); err != nil {
				return err
			}
		}
		return s.End()
	}},
}

// ownedSlot is the index of the test model's first owner-only tensor.
func ownedSlot(t testing.TB, j *Job) int {
	for i, p := range j.params {
		if OwnerOnly(p) {
			return i
		}
	}
	t.Fatal("the model has no owner-only tensor")
	return -1
}

// TestNonOwnerBytesAreRefused: a byte that arrives is decoded or refused.
// Whatever a non-owner puts in an owner-only slot — the raw wire the
// parent commit's workers sent there, garbage, a wire of the wrong length,
// one byte — is an error naming the tensor and the worker on every push
// path; the empty wire is the only thing accepted there, and from the
// owner the same bytes are decoded as ever — and the empty wire refused.
func TestNonOwnerBytesAreRefused(t *testing.T) {
	garbage := make([]byte, 16<<10)
	for i := range garbage {
		garbage[i] = byte(i*7 + 1)
	}
	for _, path := range pushPaths {
		job, ws := setup(compress.SchemeThreeLC, compress.Options{Sparsity: 1.0, ZeroRun: true}, 2)
		trainOnce(ws)
		slot := ownedSlot(t, job)
		p := job.params[slot]
		owners, _ := ws[0].CompressGrads()
		valid := append([]byte{}, owners[slot]...) // a well-formed wire of the slot's own shape
		cases := []struct {
			name string
			wire []byte
		}{
			{"the wire it used to send", valid},
			{"16 KB of garbage", garbage},
			{"a wire of the wrong length", valid[:len(valid)-3]},
			{"one byte", []byte{0}},
		}
		for _, c := range cases {
			job.BeginStep()
			if err := path.push(job, 0, owners); err != nil {
				t.Fatalf("%s: the owner's push: %v", path.name, err)
			}
			wires, _ := ws[1].CompressGrads()
			bad := append([][]byte{}, wires...)
			bad[slot] = c.wire
			err := path.push(job, 1, bad)
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", p.Name)) || !strings.Contains(err.Error(), "worker 1 ") {
				t.Errorf("%s, %s: got %v, want a refusal naming tensor %q and worker 1", path.name, c.name, err, p.Name)
			}
		}
		// The owner's slot is decoded, not skipped: a malformed wire there
		// is the codec's error.
		job.BeginStep()
		bad := append([][]byte{}, owners...)
		bad[slot] = valid[:len(valid)-3]
		if err := path.push(job, 0, bad); err == nil || !strings.Contains(err.Error(), p.Name) {
			t.Errorf("%s: the owner's truncated wire: got %v, want a decode error naming %q", path.name, err, p.Name)
		}
		// Nor is the owner's empty wire taken as an update to relay: every
		// other worker would refuse the empty slot it became.
		job.BeginStep()
		bad[slot] = nil
		if err := path.push(job, 0, bad); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", p.Name)) || !strings.Contains(err.Error(), "worker 0,") {
			t.Errorf("%s: the owner's empty wire: got %v, want a refusal naming tensor %q and worker 0", path.name, err, p.Name)
		}
	}
}

// TestStepWithoutOwnersPushIsRefused: FinishStep does not zero a tensor
// nobody pushed and step its momentum anyway. A step in which only
// non-owners pushed, and a per-tensor push that left a slot out, are
// errors naming the tensor (and, for an owner-only one, its owner), and
// the model is not stepped.
func TestStepWithoutOwnersPushIsRefused(t *testing.T) {
	for _, path := range pushPaths {
		job, ws := setup(compress.SchemeNone, compress.Options{}, 2)
		trainOnce(ws)
		p := job.params[ownedSlot(t, job)]
		before := p.W.Clone()
		job.BeginStep()
		wires, _ := ws[1].CompressGrads()
		if err := path.push(job, 1, wires); err != nil {
			t.Fatal(err)
		}
		_, _, err := job.FinishStep()
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", p.Name)) || !strings.Contains(err.Error(), "worker 0") {
			t.Errorf("%s: a step without the owner's push: got %v, want an error naming %q and worker 0", path.name, err, p.Name)
		}
		if job.Step() != 0 || !p.W.AlmostEqual(before, 0) {
			t.Errorf("%s: the refused step moved the model", path.name)
		}
	}

	job, ws := setup(compress.SchemeNone, compress.Options{}, 1)
	trainOnce(ws)
	wires, _ := ws[0].CompressGrads()
	job.BeginStep()
	s := job.BeginPush(0)
	for i := 1; i < len(wires); i++ {
		if err := s.Tensor(i, wires[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.End(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := job.FinishStep(); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", job.params[0].Name)) {
		t.Errorf("a stream that left tensor 0 out: got %v, want an error naming %q", err, job.params[0].Name)
	}
}

// FuzzPushSlot feeds one arbitrary wire to one slot of a push, from the
// owner or a non-owner, whole-set and per tensor: no panic, the two paths
// agree on whether it is an error, and a non-owner's bytes in an
// owner-only slot are never accepted — whatever they spell.
func FuzzPushSlot(f *testing.F) {
	job, ws := setup(compress.SchemeThreeLC, compress.Options{Sparsity: 1.0, ZeroRun: true}, 2)
	trainOnce(ws)
	good := make([][][]byte, len(ws))
	for w := range ws {
		wires, _ := ws[w].CompressGrads()
		for _, wire := range wires {
			good[w] = append(good[w], append([]byte{}, wire...))
		}
	}
	owned := ownedSlot(f, job)
	f.Add(uint8(1), uint8(owned), good[0][owned])                    // the raw wire a non-owner used to send
	f.Add(uint8(1), uint8(owned), good[0][owned][:5])                // a wire of the wrong length
	f.Add(uint8(1), uint8(owned), make([]byte, 16<<10))              // 16 KB the server used to count and skip
	f.Add(uint8(1), uint8(owned), []byte{})                          // the empty wire: accepted
	f.Add(uint8(0), uint8(owned), good[0][owned])                    // the owner's own
	f.Add(uint8(0), uint8(0), good[0][0])                            // a ternary wire where it belongs
	f.Add(uint8(1), uint8(0), good[0][owned])                        // a raw wire of the wrong shape in a ternary slot
	f.Add(uint8(1), uint8(owned), []byte{byte(compress.SchemeNone)}) // a scheme byte and nothing else
	f.Fuzz(func(t *testing.T, worker, slot uint8, wire []byte) {
		w, i := int(worker%2), int(slot)%len(job.params)
		set := append([][]byte{}, good[w]...)
		set[i] = wire
		job.BeginStep()
		_, setErr := job.AddPush(w, set)
		job.BeginStep()
		s := job.BeginPush(w)
		var oneErr error
		for k := range set {
			if err := s.Tensor(k, set[k]); err != nil {
				oneErr = err
			}
		}
		if (setErr == nil) != (oneErr == nil) {
			t.Fatalf("whole-set says %v, per-tensor says %v", setErr, oneErr)
		}
		if !Pushes(w, job.params[i]) && len(wire) != 0 && setErr == nil {
			t.Fatalf("worker %d's %d bytes in %s's slot were accepted", w, len(wire), job.params[i].Name)
		}
	})
}

// TestOwnerStepsWhatItIsNotSent holds the owner's own step of its
// owner-only tensors to an independent reference, under every design at 1,
// 2 and the paper's 10 workers, on a model whose batch-norm vectors are
// wide enough to pack. Every step its push of such a tensor decodes to
// opt.SGD.ApplyWithDelta's delta — over the replica's weights, the owner's
// gradient at scale 1 and a velocity of the reference's own — bit for bit,
// and the pull relays that push byte for byte. The owner is handed its
// view of the pull (Job.OwnerPull), a twin of it — same replica, same
// batch, same push — the full pull, and the others the full pull: the
// owner's replica, its twin's and every non-owner's are equal, and hold
// the global model's owner-only tensors.
func TestOwnerStepsWhatItIsNotSent(t *testing.T) {
	for _, sc := range designs {
		for _, workers := range []int{1, 2, 10} {
			t.Run(fmt.Sprintf("%s/%d workers", sc.name, workers), func(t *testing.T) {
				model := func() *nn.Model { return nn.NewMLP(8, []int{24}, 3, 1) }
				cfg := testConfig(sc.s, sc.o, workers)
				job := NewJob(model(), cfg)
				twin := NewWorker(Owner, model(), cfg)
				var ws []*Worker
				for id := 0; id < workers; id++ {
					ws = append(ws, NewWorker(id, model(), cfg))
				}
				owner := ws[Owner]
				ref := opt.NewSGD(cfg.Optimizer)
				var refParams []*nn.Param
				var refDeltas []*tensor.Tensor
				for _, p := range owner.params {
					if OwnerOnly(p) {
						refParams = append(refParams, &nn.Param{Name: p.Name, W: tensor.New(p.W.Shape()...), G: tensor.New(p.W.Shape()...)})
						refDeltas = append(refDeltas, tensor.New(p.W.Shape()...))
					}
				}
				if len(refParams) == 0 {
					t.Fatal("the model has no owner-only tensor")
				}
				rng := tensor.NewRNG(uint64(workers) + 5)
				batch := func() *tensor.Tensor {
					x := tensor.New(5, 8)
					tensor.FillNormal(x, 1, rng)
					return x
				}
				labels := []int{0, 1, 2, 0, 1}
				for step := 0; step < 6; step++ {
					job.BeginStep()
					var pushed [][]byte
					for _, w := range ws {
						x := batch()
						if w == owner {
							twin.Model.TrainStep(x, labels)
							twin.CompressGrads()
						}
						w.Model.TrainStep(x, labels)
						wires, _ := w.CompressGrads()
						if w == owner {
							pushed = wires
						}
						if _, err := job.AddPush(w.ID, wires); err != nil {
							t.Fatal(err)
						}
					}
					k := 0
					for _, p := range owner.params {
						if OwnerOnly(p) {
							refParams[k].W.CopyFrom(p.W)
							refParams[k].G.CopyFrom(p.G)
							k++
						}
					}
					ref.ApplyWithDelta(refParams, refDeltas)
					pull, _, err := job.FinishStep()
					if err != nil {
						t.Fatal(err)
					}
					view := job.OwnerPull()
					k = 0
					for i, p := range job.params {
						if !OwnerOnly(p) {
							if string(view[i]) != string(pull[i]) {
								t.Fatalf("step %d: the owner's view of %s differs from the pull", step, p.Name)
							}
							continue
						}
						if len(view[i]) != 0 {
							t.Fatalf("step %d: the owner's view has %d bytes of %s, which it owns", step, len(view[i]), p.Name)
						}
						if string(pull[i]) != string(pushed[i]) {
							t.Fatalf("step %d: the pull of %s is not the owner's push", step, p.Name)
						}
						update := tensor.New(p.W.Shape()...)
						if err := compress.DecompressInto(pushed[i], update); err != nil {
							t.Fatal(err)
						}
						assertSameState(t, [][]float32{update.Data()}, [][]float32{refDeltas[k].Data()}, "reference update")
						k++
					}
					if _, err := owner.ApplyPull(view); err != nil {
						t.Fatalf("step %d: the owner's view: %v", step, err)
					}
					if _, err := twin.ApplyPull(pull); err != nil {
						t.Fatalf("step %d: the full pull on the owner: %v", step, err)
					}
					for _, w := range ws[1:] {
						if _, err := w.ApplyPull(pull); err != nil {
							t.Fatal(err)
						}
					}
					want := weightsOf(owner.params)
					for i, p := range job.params {
						if OwnerOnly(p) {
							assertSameState(t, [][]float32{p.W.Data()}, [][]float32{want[i]}, "owner's replica")
						}
					}
					assertSameState(t, weightsOf(twin.params), want, "owner's view")
					for _, w := range ws[1:] {
						assertSameState(t, weightsOf(w.params), want, "owner's view")
					}
				}
			})
		}
	}
}

// TestEmptyPullSlotIsRefused: an empty owner-only slot of a pull means
// "add the update you pushed" to the owner that pushed one, and to nobody
// else. Handed to a non-owner, or to the owner with no update pushed — it
// never compressed, or it already applied this push's update — it is an
// error naming the tensor and the worker, over the whole-set and the
// per-tensor path, not "keep the stale weights".
func TestEmptyPullSlotIsRefused(t *testing.T) {
	apply := []struct {
		name string
		run  func(w *Worker, slot int, view [][]byte) error
	}{
		{"ApplyPull", func(w *Worker, _ int, view [][]byte) error {
			_, err := w.ApplyPull(view)
			return err
		}},
		{"ApplyPullTensor", func(w *Worker, slot int, view [][]byte) error {
			return w.ApplyPullTensor(slot, view[slot])
		}},
	}
	for _, a := range apply {
		job, ws := setup(compress.SchemeThreeLC, compress.Options{Sparsity: 1.0, ZeroRun: true}, 2)
		trainOnce(ws)
		job.BeginStep()
		for _, w := range ws {
			wires, _ := w.CompressGrads()
			if _, err := job.AddPush(w.ID, wires); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := job.FinishStep(); err != nil {
			t.Fatal(err)
		}
		slot := ownedSlot(t, job)
		view := job.OwnerPull()
		refused := func(what string, w *Worker) {
			t.Helper()
			err := a.run(w, slot, view)
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", job.params[slot].Name)) || !strings.Contains(err.Error(), fmt.Sprintf("worker %d ", w.ID)) {
				t.Errorf("%s, %s: got %v, want a refusal naming tensor %q and worker %d", a.name, what, err, job.params[slot].Name, w.ID)
			}
		}
		refused("a non-owner", ws[1])
		fresh := NewWorker(Owner, testModel(1), testConfig(compress.SchemeThreeLC, compress.Options{Sparsity: 1.0, ZeroRun: true}, 2))
		refused("an owner that pushed nothing", fresh)
		if err := a.run(ws[Owner], slot, view); err != nil {
			t.Fatalf("%s: the owner with its update pushed: %v", a.name, err)
		}
		refused("the owner, its update applied already", ws[Owner])
	}
}

// TestServerDoesNotStepOwnerOnlyTensors: the job relays an owner-only
// tensor's update instead of stepping it. Over a few steps under every
// design, its optimizer sweep runs once per other tensor and never over
// an owner-only one, and its checkpointed optimizer state holds a velocity
// for every other tensor and for no owner-only one.
func TestServerDoesNotStepOwnerOnlyTensors(t *testing.T) {
	var sweeps int
	defer func(h func(string, int)) { kernel.PassHook = h }(kernel.PassHook)
	kernel.PassHook = func(pass string, _ int) {
		if pass == "fused-sgd-step" {
			sweeps++
		}
	}
	for _, sc := range designs {
		cfg := testConfig(sc.s, sc.o, 2)
		global := testModel(1)
		job := NewJob(global, cfg)
		var ws []*Worker
		for id := 0; id < 2; id++ {
			m := testModel(1)
			m.CopyParamsFrom(global)
			ws = append(ws, NewWorker(id, m, cfg))
		}
		stepped := map[string]bool{}
		for _, p := range job.params {
			if !OwnerOnly(p) {
				stepped[p.Name] = true
			}
		}
		if len(stepped) == len(job.params) {
			t.Fatal("the model has no owner-only tensor")
		}
		for step := 0; step < 3; step++ {
			trainOnce(ws)
			job.BeginStep()
			for _, w := range ws {
				wires, _ := w.CompressGrads()
				if _, err := job.AddPush(w.ID, wires); err != nil {
					t.Fatal(err)
				}
			}
			sweeps = 0
			pull, _, err := job.FinishStep()
			if err != nil {
				t.Fatal(err)
			}
			if sweeps != len(stepped) {
				t.Errorf("%s step %d: %d optimizer sweeps, want %d, one per tensor that is not owner-only", sc.name, step, sweeps, len(stepped))
			}
			for _, w := range ws {
				if _, err := w.ApplyPull(pull); err != nil {
					t.Fatal(err)
				}
			}
		}
		// The server section: [u32 optimizer length][u64 step][u32 count]
		// then per velocity [u16 name length][name][u32 n][4n bytes].
		st := job.AppendState(nil)
		vel := st[4+8:]
		count := int(binary.LittleEndian.Uint32(vel))
		vel = vel[4:]
		for range count {
			n := int(binary.LittleEndian.Uint16(vel))
			name := string(vel[2 : 2+n])
			if !stepped[name] {
				t.Errorf("%s: the server holds a velocity of %s, whose update its owner pushes", sc.name, name)
			}
			vel = vel[2+n+4+4*int(binary.LittleEndian.Uint32(vel[2+n:])):]
		}
		if count != len(stepped) {
			t.Errorf("%s: the server holds %d velocities, want %d", sc.name, count, len(stepped))
		}
	}
}
