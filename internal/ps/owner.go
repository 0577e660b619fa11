// Batch-norm ownership (§5.2): which worker owns the tensors that have one
// owner, who pushes them, who is sent them, and the step the owner takes
// itself in place of the one it is not sent.
package ps

import (
	"fmt"
	"slices"

	"threelc/internal/compress"
	"threelc/internal/kernel"
	"threelc/internal/nn"
	"threelc/internal/tensor"
)

// Owner is the worker that owns the tensors with a single owner: the one
// that pushes them (Pushes) and the one that is not sent them (Pulls). Like
// every worker of package train's BSP step, it pushes and pulls every step.
const Owner = 0

// OwnerOnly reports whether p is pushed by Owner alone (§5.2): a
// batch-norm tensor's update is one designated worker's gradient, taken
// as is and not averaged.
func OwnerOnly(p *nn.Param) bool { return p.NoCompress }

// Pushes is the one definition of who sends what: worker pushes tensor p
// unless p has an owner and worker is not it. A worker that does not push
// p puts the empty wire in p's slot — the format's "nothing to add" — and
// an aggregator accepts nothing else there (RefuseUnpushed).
func Pushes(worker int, p *nn.Param) bool { return worker == Owner || !OwnerOnly(p) }

// Pulls is the mirror of Pushes and the one definition of what each worker
// is sent: every tensor, except that the owner is not sent the tensors only
// it pushes. The server's step for such a tensor is a function of the
// owner's push and of state the owner keeps a copy of, so the owner takes
// that step itself (Worker) and its slot of the pull holds the empty wire.
// It holds under every design, float32 included.
func Pulls(worker int, p *nn.Param) bool { return worker != Owner || !OwnerOnly(p) }

// RefuseUnpushed is what an aggregator makes of the slot of a tensor that
// worker does not push: the empty wire passes, anything else is an error —
// a byte that arrives is decoded or refused, never counted and skipped.
func RefuseUnpushed(worker int, p *nn.Param, wire []byte) error {
	if len(wire) != 0 {
		return fmt.Errorf("ps: push tensor %q: worker %d sent %d bytes, but only worker %d pushes it", p.Name, worker, len(wire), Owner)
	}
	return nil
}

// NoPush is the error of a step that cannot finish: tensor p was pushed by
// nobody, so there is no gradient to step its momentum with.
func NoPush(p *nn.Param) error {
	if OwnerOnly(p) {
		return fmt.Errorf("ps: tensor %q received no push from its owner, worker %d, this step", p.Name, Owner)
	}
	return fmt.Errorf("ps: tensor %q received no push this step", p.Name)
}

// OwnerView returns pull as the owner is sent it (Pulls): pull's wires, in
// dst (recycled), with the owner-only slots empty.
func OwnerView(params []*nn.Param, pull, dst [][]byte) [][]byte {
	dst = append(dst[:0], pull...)
	for i, p := range params {
		if !Pulls(Owner, p) {
			dst[i] = nil
		}
	}
	return dst
}

// OwnerPull returns the last finished step's pull as the owner is sent it
// (OwnerView), or nil when the job holds no owner-only tensor and the owner
// is sent the shared pull. Like the pull it views, it is valid until the
// next FinishStep.
func (s *Job) OwnerPull() [][]byte {
	if !slices.ContainsFunc(s.params, OwnerOnly) {
		return nil
	}
	s.ownerPull = OwnerView(s.params, s.pullWires, s.ownerPull)
	return s.ownerPull
}

// Momentum is what a tier holding its optimizer in process offers a
// resumed owner (Worker.Resume): the server's velocity of tensor p, nil
// before p's first step.
type Momentum interface {
	Velocity(p *nn.Param) []float32
}

// Velocity returns the job's velocity of p, nil before p's first step.
func (s *Job) Velocity(p *nn.Param) []float32 { return s.optimizer.Velocity(p.Name) }

// ownStep is the owner's copy of the server's side of one owner-only
// tensor: the weights and velocity the server steps and how many steps it
// has taken, plus what the last step replayed.
type ownStep struct {
	w, v   []float32
	step   int                 // steps taken: the schedule position
	grad   *tensor.Tensor      // the push, decoded as the server decodes it
	delta  *tensor.Tensor      // the update of the last step
	staged bool                // the push in the worker's wire buffer awaits its step
	ctx    compress.Compressor // the server's pull context for the tensor (Complete)
	wire   []byte              // delta on the server's wire, recycled
}

// newOwnSteps gives the owner, whose replica starts as the server's global
// model, a copy of the server's state for each owner-only tensor; the
// other workers get none.
func newOwnSteps(id int, params []*nn.Param, cfg Config) []*ownStep {
	own := make([]*ownStep, len(params))
	if id != Owner {
		return own
	}
	for i, p := range params {
		if OwnerOnly(p) {
			own[i] = &ownStep{w: slices.Clone(p.W.Data()), v: make([]float32, p.W.Len()),
				grad: tensor.New(p.W.Shape()...), delta: tensor.New(p.W.Shape()...),
				ctx: cfg.newContext(p, 0)}
		}
	}
	return own
}

// applyOwn applies pull slot i on the owner, for a tensor the owner is not
// sent (Pulls). Once per step it replays on the push it made what the
// server does with a tensor only the owner pushes: decode it as the first
// accumulation of a fresh sum, then kernel.Blocks.SGDStep — no record,
// every block live, into a Delta sink — on the copy of the server's
// weights and velocity at the schedule's rate and averaging scale 1
// (Job.stepFor). The delta is therefore the server's bit for bit, and the
// empty wire means "add it". A full wire — from a server that sends every
// worker the shared pull — is decoded and added as ever, the replay
// keeping the copy in step. The empty wire with no push to step is
// an error: it never means "keep the stale weights".
//
//3lc:noalloc
func (w *Worker) applyOwn(i int, wire []byte) error {
	o, p := w.own[i], w.params[i]
	if !o.staged {
		if len(wire) == 0 {
			return fmt.Errorf("worker %d was sent the empty wire with no push of its own staged to step", w.ID)
		}
		return compress.DecompressAddInto(wire, p.W, 0)
	}
	o.staged = false
	if err := compress.DecompressFirstAddInto(w.pushWires[i], o.grad); err != nil {
		return err
	}
	sgd := &w.cfg.Optimizer
	lr := float32(w.sched.LR(o.step))
	o.step++
	var all *kernel.Blocks
	all.SGDStep(o.w, o.v, o.grad.Data(), kernel.Sink{Delta: o.delta.Data()}, 1, float32(sgd.WeightDecay), float32(sgd.Momentum), lr)
	if len(wire) != 0 {
		return compress.DecompressAddInto(wire, p.W, 0)
	}
	p.W.Add(o.delta)
	return nil
}

// Complete returns pull, in dst (recycled), with each empty owner-only slot
// holding what the server sends every other worker there: the delta of the
// owner's own step on the server's wire (its exempt pull context is
// stateless, so the bytes are the server's). It is how a driver that holds
// only the pull the owner was sent — train.Run over a dialed tier, whose
// pull is seat 0's — hands the other workers theirs. Call it on the owner,
// after it applied pull; the wires are valid until its next step.
func (w *Worker) Complete(pull, dst [][]byte) [][]byte {
	dst = append(dst[:0], pull...)
	for i, o := range w.own {
		if o != nil && len(dst[i]) == 0 {
			o.wire = o.ctx.CompressInto(o.delta, o.wire[:0])
			dst[i] = o.wire
		}
	}
	return dst
}

// Resume seeds the owner's copy of the server's state from a restored run:
// the global weights of the owner-only tensors, the tier's velocity of
// them, and step, the steps the server has taken. It is a no-op on any
// other worker.
func (w *Worker) Resume(global []*nn.Param, m Momentum, step int) error {
	if len(global) != len(w.own) {
		return fmt.Errorf("ps: resume: %d global tensors, worker has %d", len(global), len(w.own))
	}
	for i, o := range w.own {
		if o == nil {
			continue
		}
		v := m.Velocity(global[i])
		switch {
		case v == nil && step > 0:
			return fmt.Errorf("ps: resume: the tier holds no velocity of %q, stepped %d times", global[i].Name, step)
		case v != nil && len(v) != len(o.v):
			return fmt.Errorf("ps: resume: the tier's velocity of %q has %d values, the tensor %d", global[i].Name, len(v), len(o.v))
		}
		copy(o.w, global[i].W.Data())
		copy(o.v, v)
		clear(o.v[len(v):])
		o.step, o.staged = step, false
	}
	return nil
}
