// Batch-norm ownership (§5.2): which worker owns the tensors that have one
// owner, who pushes them, who is sent them, and the step the owner takes
// itself, whose update it pushes and the server relays.
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
// as is and not averaged, so that worker steps it and pushes the update
// (Worker), and the server adds it to the global model and relays it (Job).
func OwnerOnly(p *nn.Param) bool { return p.NoCompress }

// Pushes is the one definition of who sends what: worker pushes tensor p
// unless p has an owner and worker is not it. A worker that does not push
// p puts the empty wire in p's slot — the format's "nothing to add" — and
// an aggregator accepts nothing else there (RefuseUnpushed).
func Pushes(worker int, p *nn.Param) bool { return worker == Owner || !OwnerOnly(p) }

// Pulls is the mirror of Pushes and the one definition of what each worker
// is sent: every tensor, except that the owner is not sent the tensors only
// it pushes. What the server relays in such a tensor's slot is the owner's
// own push, the update of the step it took, so the owner's slot of the pull
// holds the empty wire. It holds under every design, float32 included.
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
// nobody, so there is no gradient to step its momentum with (no update to
// relay, for an owner-only p).
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

// ownStep is the owner's optimizer state for one owner-only tensor — its
// velocity and how many steps it has taken — plus the update of its last
// step and the scratch that step writes the stepped weights to.
type ownStep struct {
	v      []float32
	step   int            // steps taken: the schedule position
	w      []float32      // scratch: the replica's weights, copied and stepped
	delta  *tensor.Tensor // the update of the last step, pushed
	staged bool           // the update pushed awaits its apply (applyOwn)
}

// newOwnSteps gives the owner the optimizer state of each owner-only
// tensor; the other workers get none.
func newOwnSteps(id int, params []*nn.Param) []*ownStep {
	own := make([]*ownStep, len(params))
	if id != Owner {
		return own
	}
	for i, p := range params {
		if OwnerOnly(p) {
			own[i] = &ownStep{v: make([]float32, p.W.Len()), w: make([]float32, p.W.Len()), delta: tensor.New(p.W.Shape()...)}
		}
	}
	return own
}

// update takes the step of owner-only tensor i and returns its update, the
// tensor the owner pushes in place of the gradient (§5.2: the update of
// such a tensor is the owner's gradient as is, not averaged). It is
// kernel.Blocks.SGDStep — no record, every block live, into a Delta sink —
// at the schedule's rate and gradient scale 1, over the tensor's velocity
// and a copy of the replica's weights: the replica itself moves by the
// update only when the pull applies it (applyOwn), as every other replica
// and the global model do.
//
//3lc:noalloc
func (w *Worker) update(i int) *tensor.Tensor {
	o, p := w.own[i], w.params[i]
	sgd := &w.cfg.Optimizer
	lr := float32(w.sched.LR(o.step))
	o.step++
	o.staged = true
	copy(o.w, p.W.Data())
	var all *kernel.Blocks
	all.SGDStep(o.w, o.v, p.G.Data(), kernel.Sink{Delta: o.delta.Data()}, 1, float32(sgd.WeightDecay), float32(sgd.Momentum), lr)
	return o.delta
}

// applyOwn applies pull slot i on the owner, for a tensor whose update it
// pushed (update). The empty wire means "add the update you pushed", which
// the server relays to every other worker and adds to the global model.
// A full wire — from a server that sends every worker the shared pull — is
// that update on the wire, decoded and added like any other and never a
// second step. The empty wire with no update pushed is an error: it never
// means "keep the stale weights".
//
//3lc:noalloc
func (w *Worker) applyOwn(i int, wire []byte) error {
	o, p := w.own[i], w.params[i]
	pushed := o.staged
	o.staged = false
	switch {
	case len(wire) != 0:
		return compress.DecompressAddInto(wire, p.W, 0)
	case !pushed:
		return fmt.Errorf("worker %d was sent the empty wire with no update of its own pushed to apply", w.ID)
	}
	p.W.Add(o.delta)
	return nil
}

// Complete returns pull, in dst (recycled), with each empty owner-only slot
// holding what the server sends every other worker there: the owner's push,
// which the server relays as is. It is how a driver that holds only the
// pull the owner was sent — train.Run over a dialed tier, whose pull is
// seat 0's — hands the other workers theirs. Call it on the owner, after
// it applied pull; the wires are valid until its next push.
func (w *Worker) Complete(pull, dst [][]byte) [][]byte {
	dst = append(dst[:0], pull...)
	for i, o := range w.own {
		if o != nil && len(dst[i]) == 0 {
			dst[i] = w.pushWires[i]
		}
	}
	return dst
}
