package train

import (
	"time"

	"threelc/internal/ps"
)

// inOrder is the worker-order gate in front of an in-process tier. Run
// feeds a step's sessions from one goroutine per worker, tensors arriving
// as they are compressed; a ps.Job wants one driver goroutine and, per
// tensor, the workers' wires in worker order — what keeps the gradient sums
// byte-identical to the staged serial driver.
// So a session here is a channel, and FinishStep is the aggregator: it
// ingests the sessions in the order Run opened them (worker order), each
// tensor as it arrives, so the tier aggregates worker w's push during
// worker w+1's compute instead of after the whole barrier. A dialed tier
// needs none of this (the serving side orders by seat), and behind it
// worker w's frames would wait for worker w−1's compressor.
type inOrder struct {
	ps.Tier // BeginPush and FinishStep are gated; state passes through
	tensors int
	opened  []*orderedPush // this step's sessions, in BeginPush order
}

type tensorWire struct {
	i    int
	wire []byte
}

// orderedPush is one worker's session: a queue the worker's goroutines
// fill and FinishStep drains. Errors surface from FinishStep.
type orderedPush struct {
	worker int
	ch     chan tensorWire // as deep as the model has tensors: emitters never block
}

func (t *inOrder) BeginStep() {
	t.Tier.BeginStep()
	t.opened = t.opened[:0]
}

func (t *inOrder) BeginPush(worker int) ps.PushSession {
	p := &orderedPush{worker: worker, ch: make(chan tensorWire, t.tensors)}
	t.opened = append(t.opened, p)
	return p
}

func (p *orderedPush) Set(wires [][]byte) error {
	for i, w := range wires {
		p.ch <- tensorWire{i, w}
	}
	return nil
}

func (p *orderedPush) Tensor(i int, wire []byte) error {
	p.ch <- tensorWire{i, wire}
	return nil
}

func (p *orderedPush) End() error {
	close(p.ch)
	return nil
}

// FinishStep drains the step's sessions into the tier, in order, returning
// once every one has ended, and finishes the tier's step. The duration
// adds the time spent inside the tier's sessions (channel waits are
// compute overlap, not codec cost) to the tier's own.
func (t *inOrder) FinishStep() ([][]byte, time.Duration, error) {
	var decode time.Duration
	var err error
	for _, p := range t.opened {
		sess := t.Tier.BeginPush(p.worker)
		for tw := range p.ch {
			if err != nil {
				continue // drain so the worker's End is reached
			}
			t0 := time.Now()
			err = sess.Tensor(tw.i, tw.wire)
			decode += time.Since(t0)
		}
		if err == nil {
			err = sess.End()
		}
	}
	if err != nil {
		return nil, 0, err
	}
	pull, dur, err := t.Tier.FinishStep()
	return pull, dur + decode, err
}
