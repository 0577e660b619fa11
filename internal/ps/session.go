// PushSession and Tier: the aggregation surface a step driver speaks. A
// driver opens a session per worker per step (BeginPush), feeds it one
// whole set (Set) or tensors as they materialize (Tensor), and completes it
// (End). train.Run pushes through sessions. One whole-set entry point does
// not open one: Job.AddPush — BeginPush, Set and End in a single call, the
// push method of transport.StepServer that a transport session calls with
// a push it has received whole.
package ps

import "time"

// Tier is the surface one BSP step driver drives, whatever aggregates
// behind it: *Job (one server in process) and transport.DialedTier
// (connections to servers elsewhere — one, or the shard servers of a
// sharded tier) implement it, and train.Run is written against nothing
// else. A step is BeginStep, one BeginPush session per pushing worker, then
// FinishStep, which averages what was pushed, applies the optimizer and returns the
// shared pull — or, from a dialed tier, the one its owner's seat was sent,
// less the owner-only slots (Pulls) — aliasing tier-owned buffers, valid
// until the next FinishStep, with the tier's codec wall time. A Job is
// driven by one goroutine, in worker order (see PushSession); a dialed tier
// takes every seat's push concurrently.
type Tier interface {
	BeginStep()
	BeginPush(worker int) PushSession
	FinishStep() ([][]byte, time.Duration, error)
	// AppendState / RestoreState capture the tier's mutable training state
	// (optimizer, pull contexts) for full-state checkpoints; both are
	// step-boundary operations.
	AppendState(dst []byte) []byte
	RestoreState(src []byte) error
}

// PushSession ingests one worker's gradient push for one step. Obtain
// one from a Tier's BeginPush. Exactly one of Set (whole-set) or a series
// of Tensor calls (per-tensor, any tensor order, each tensor exactly
// once) feeds the push; End completes it, advancing the push count the
// step's averaging divides by.
//
// Sessions are recycled per (job, worker) — they are valid until the
// owning job's next BeginPush for the same worker — and a session's
// methods must be called from the job's single aggregation driver.
type PushSession interface {
	// Set ingests the worker's full wire set (one wire per model tensor).
	Set(wires [][]byte) error
	// Tensor ingests a single tensor's wire. Calls for the SAME tensor
	// index across workers must arrive in worker order (per-tensor
	// accumulation order is what keeps the aggregate byte-identical to
	// the whole-set driver).
	Tensor(i int, wire []byte) error
	// End completes the push. Required after Set and Tensor alike.
	End() error
}

var _ Tier = (*Job)(nil)

// pushSession is Job's recycled PushSession implementation; one lives in
// Job.sessions per worker id, so BeginPush allocates nothing in steady
// state.
type pushSession struct {
	j      *Job
	worker int
}

// BeginPush opens workerID's push session for the current step. The
// returned session is recycled: it is valid until the next BeginPush for
// the same worker on this job.
func (s *Job) BeginPush(workerID int) PushSession {
	for workerID >= len(s.sessions) {
		s.sessions = append(s.sessions, pushSession{j: s})
	}
	se := &s.sessions[workerID]
	se.worker = workerID
	return se
}

func (p *pushSession) Set(wires [][]byte) error {
	_, err := p.j.ingestSet(p.worker, wires)
	return err
}

func (p *pushSession) Tensor(i int, wire []byte) error {
	return p.j.ingestTensor(p.worker, i, wire)
}

func (p *pushSession) End() error {
	p.j.endPush()
	return nil
}
