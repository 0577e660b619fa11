// PushSession: the single push choke point. A whole-set push, a push fed
// tensor by tensor, and the transport's streamed per-tensor frames all
// go through one object: a driver opens a session per worker per step
// (BeginPush), feeds it either one whole set (Set) or tensors as they
// materialize (Tensor), and completes it (End). Every push in the system
// now flows through a session, which is what gives the multi-tenant
// shard scheduler (package shard) a single place to meter, charge, and
// order tenant traffic.
package ps

import "time"

// PushSession ingests one worker's gradient push for one step. Obtain
// one from Job.BeginPush (or the sharded tier's equivalent). Exactly one
// of Set (whole-set) or a series of Tensor calls (per-tensor, any tensor
// order, each tensor exactly once) feeds the push; End completes it,
// advancing the push count the step's averaging divides by.
//
// Sessions are recycled per (job, worker) — they are valid until the
// owning job's next BeginPush for the same worker — and a session's
// methods must be called from the job's single aggregation driver
// (different tensors of one session may still decode concurrently
// underneath).
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

// pushSession is Job's recycled PushSession implementation; one lives in
// Job.sessions per worker id, so BeginPush allocates nothing in steady
// state.
type pushSession struct {
	j      *Job
	worker int
	dur    time.Duration
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
	se.dur = 0
	return se
}

func (p *pushSession) Set(wires [][]byte) error {
	d, err := p.j.ingestSet(p.worker, wires)
	p.dur += d
	return err
}

func (p *pushSession) Tensor(i int, wire []byte) error {
	return p.j.ingestTensor(p.worker, i, wire)
}

func (p *pushSession) End() error {
	p.j.endPush()
	return nil
}
