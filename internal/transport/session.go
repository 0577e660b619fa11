// The session engine: one BSP loop over a table of worker seats, behind
// every server in the package. ShardServer seats cfg.Workers connections
// and runs it for cfg.Steps; NewServer is that with one shard.
package transport

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync/atomic"
	"time"

	"threelc/internal/ps"
)

// StepServer is the aggregation surface a session drives each BSP step:
// open the step, hand it one worker's push once the push has arrived
// whole, close the step and collect the shared pull. The parameter server
// (*ps.Job) implements it. The wires AddPush is handed are valid only
// during the call: every seat's push is received into one buffer, so an
// aggregator copies what it keeps. The pull FinishStep returns must stay
// valid until the next AddPush: a float32 job's raw pull is its gradient
// sum's memory, which the next push overwrites.
type StepServer interface {
	BeginStep()
	AddPush(workerID int, wires [][]byte) (time.Duration, error)
	FinishStep() ([][]byte, time.Duration, error)
}

// ownerViewer is what an aggregator may offer for the pull: the last
// finished step's pull as the owner is sent it (ps.Pulls), nil when that
// is the shared one. The session sends it to the owner's seat (*ps.Job
// offers it). An aggregator without it sends every seat the shared pull,
// which stays correct: the owner decode-adds a full slot as ever.
type ownerViewer interface {
	OwnerPull() [][]byte
}

// traffic counts an endpoint's payload bytes, pushes received and pulls
// sent; sessions add to it from their own goroutines while TrafficBytes
// reads.
type traffic struct{ push, pull atomic.Int64 }

// TrafficBytes reports the total wire bytes received (pushes) and sent
// (pulls, summed over workers).
func (t *traffic) TrafficBytes() (push, pull int64) { return t.push.Load(), t.pull.Load() }

// link is one framed connection and the codec its hello negotiated — the
// unit both ends of every transport connection are built from. It owns
// the package's write path: a stream's tensors join the run open at the
// end of out, or open one (frames.entry), and the socket sees a flush at a
// time. out copies the framing and every wire under flushBytes and splices
// the longer ones (frames), so a plain link holds about a flush of bytes
// of its own however large the tensors it sends. A resilient client's out
// is flat and keeps the step's push once written: a redial replays it.
type link struct {
	c    net.Conn
	br   *bufio.Reader // flushBytes deep: one read drains one flush
	fr   *FrameReader
	to   Timeouts
	fc   frameCodec
	out  frames // frames queued since the last flush, recycled
	sent int    // bytes at the front of out written on this connection (a flat out keeps them)
	// segs is write's segment list, recycled; iov is the copy of it a
	// net.Buffers write consumes.
	segs, iov net.Buffers
}

// attach points l at a fresh connection, keeping its codec, its scratch
// and what is queued, none of which the connection has been written yet.
func (l *link) attach(c net.Conn) {
	l.c = c
	l.br = bufio.NewReaderSize(c, flushBytes)
	l.fr = NewFrameReader(l.br)
	l.sent = 0
}

// reset drops whatever is queued, an open run included.
func (l *link) reset() {
	l.out.reset()
	l.sent = 0
}

// open dials addr and sends the hello l's codec describes, vouching for
// placement hash.
func (l *link) open(d Dialer, addr string, hash uint32) error {
	c, err := d.dial(addr)
	if err != nil {
		return fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	l.attach(c)
	if err := l.send(frame{t: MsgShardHello, arg: hash}); err != nil {
		c.Close()
		return err
	}
	return nil
}

// flush closes the open run and writes what is queued and not yet written
// on this connection. A plain link then drops it; a flat one keeps it.
//
//3lc:noalloc
func (l *link) flush() error {
	err := l.out.closeRun(&l.fc)
	if err == nil && len(l.out.b) > l.sent {
		err = l.write(&l.out, l.sent)
	}
	if l.out.flat {
		l.sent = len(l.out.b)
	} else {
		l.out.reset()
	}
	return err
}

// send writes f on its own, ahead of anything queued: a hello or a bye,
// the protocol's turns that carry no tensor.
func (l *link) send(f frame) error {
	var q frames
	if err := l.fc.putFrame(&q, f); err != nil {
		return err
	}
	return l.write(&q, 0)
}

// write hands the socket q from byte from on — whole frames, prefixes
// included: a flush, or a pull some session encoded once for every seat it
// is owed by — under one write deadline: however many frames q holds, a
// peer that stops reading fails it within Timeouts.Write. Frames that
// splice nothing are one Write of their bytes; otherwise q's segments go
// out as one net.Buffers write, a single writev on a TCP connection and a
// Write per segment on any other writer (from is then 0: only a flat out
// is written in parts). A connection writes nowhere else.
//
//3lc:noalloc
func (l *link) write(q *frames, from int) error {
	l.to.beforeWrite(l.c)
	if len(q.splices) == 0 {
		_, err := l.c.Write(q.b[from:])
		return err
	}
	l.iov = q.segments(l.segs[:0])
	l.segs = l.iov[:0]
	_, err := l.iov.WriteTo(l.c)
	return err
}

// read receives one frame into buf under the read deadline and parses it
// at step (see frameCodec.parseFrame). The frame aliases buf.
//
//3lc:noalloc
func (l *link) read(buf *[]byte, step int, replay bool) (frame, error) {
	l.to.beforeRead(l.c)
	t, payload, err := l.fr.ReadFrameInto(buf)
	if err != nil {
		return frame{}, err
	}
	return l.fc.parseFrame(t, payload, step, replay)
}

// errListener tags accept failures of the listener itself (closed,
// deadline), as opposed to a bad handshake on one accepted connection.
// Serving tolerates the latter where it can — a corrupted hello is the
// peer's problem and the worker behind it retries — but a listener
// failure ends the endpoint.
var errListener = errors.New("transport: listener failure")

// seat is one worker's place in a session: its connection. The push it
// sends is received into the session's one push buffer.
type seat struct {
	link
	id int
}

// acceptSeat takes one connection off ln and parses its hello, returning
// the seat and the placement hash the hello vouches for. Listener
// failures wrap errListener; handshake failures do not, and close the
// connection. The hello read is deadline-armed: a connection that never
// speaks must not stall the accept loop.
func acceptSeat(ln net.Listener, to Timeouts) (*seat, uint32, error) {
	c, err := ln.Accept()
	if err != nil {
		return nil, 0, fmt.Errorf("%w: %w", errListener, err)
	}
	st := &seat{link: link{to: to}}
	st.attach(c)
	to.beforeRead(c)
	t, payload, err := st.fr.ReadFrame()
	var hash uint32
	if err == nil {
		st.fc, hash, err = parseHello(t, payload)
	}
	if err != nil {
		c.Close()
		return nil, 0, fmt.Errorf("transport: hello: %w", err)
	}
	st.id = int(st.fc.worker)
	return st, hash, nil
}

// admit holds a parsed hello against the endpoint it arrived at.
func (cfg *ShardServerConfig) admit(fc *frameCodec, hash uint32) error {
	switch {
	case int(fc.shard) != cfg.Shard:
		return fmt.Errorf("transport: hello for shard %d on shard %d", fc.shard, cfg.Shard)
	case hash != cfg.AssignmentHash:
		return fmt.Errorf("transport: worker %d placement hash %#x != server %#x (divergent model layout)",
			fc.worker, hash, cfg.AssignmentHash)
	case int(fc.worker) >= cfg.Workers:
		return fmt.Errorf("transport: bad worker id %d", fc.worker)
	case fc.resilient && !cfg.Resilient:
		return fmt.Errorf("transport: shard %d keeps no seat across reconnects: resilient client refused", cfg.Shard)
	}
	return nil
}

// session is one job's BSP exchange on one shard: a seat per worker,
// driven in worker-id order each step so gradient accumulation order —
// and therefore the aggregator's state — is deterministic and matches
// the in-process tier.
type session struct {
	cfg  ShardServerConfig
	agg  StepServer
	view ownerViewer  // nil: the owner is sent the shared pull
	ln   net.Listener // where a severed resilient seat's reconnect arrives
	tr   *traffic

	seats []*seat // indexed by worker id; nil while severed
	// push is the one buffer every seat's push is received into: a seat's
	// push is read whole and handed to AddPush before the next seat is
	// read, and the aggregator keeps none of it past the call.
	push seq
	// applied[w] is the last step whose push worker w's seat aggregated
	// (-1 before the first): the dedupe identity for replayed pushes.
	applied []int

	// pulls are the last finished step's (done) pull sets: [0] the shared
	// one, [1] the owner's (nil: the owner is sent [0]). The aggregator's
	// are valid only until the next push reaches it (StepServer), which is
	// as long as a plain seat needs them; a resilient session answers a
	// seat that lost the broadcast when it replays its push, after other
	// seats' pushes of the next step, so it sends copies (kept).
	// pullBuf[o][k] is set o's runs for plain (k 0) or resilient (k 1)
	// seats — its large wires spliced, not copied, so it is valid exactly
	// as long as the pull — built at most once per step (pullAt[o][k] ==
	// done) by the first seat that needs it: during the broadcast, or
	// later, when a resilient seat replays its push.
	pulls   [2][][]byte
	kept    [2][][]byte // a resilient session's copies of pulls, recycled
	done    int
	pullBuf [2][2]frames
	pullAt  [2][2]int
}

func newSession(agg StepServer, cfg ShardServerConfig, ln net.Listener, tr *traffic) *session {
	s := &session{cfg: cfg, agg: agg, ln: ln, tr: tr, done: -1,
		seats: make([]*seat, cfg.Workers), applied: make([]int, cfg.Workers)}
	s.view, _ = agg.(ownerViewer)
	for i := range s.applied {
		s.applied[i] = -1
	}
	for o := range s.pullAt {
		for k := range s.pullAt[o] {
			s.pullAt[o][k] = -1
		}
	}
	return s
}

// close hangs up on every seated worker.
func (s *session) close() {
	for _, st := range s.seats {
		if st != nil {
			st.c.Close()
		}
	}
}

// accept seats one connection off the session's own listener.
func (s *session) accept() (*seat, error) {
	st, hash, err := acceptSeat(s.ln, s.cfg.Timeouts)
	if err != nil {
		return nil, err
	}
	if err := s.cfg.admit(&st.fc, hash); err != nil {
		st.c.Close()
		return nil, err
	}
	return st, nil
}

// fill accepts until every seat is taken. A resilient session tolerates
// bad handshakes (the worker behind one retries) and lets a worker's
// reconnect supersede its earlier connection.
func (s *session) fill() error {
	for have := 0; have < len(s.seats); {
		st, err := s.accept()
		if err != nil {
			if s.cfg.Resilient && !errors.Is(err, errListener) {
				continue
			}
			return err
		}
		if old := s.seats[st.id]; old == nil {
			have++
		} else if s.cfg.Resilient {
			old.c.Close()
		} else {
			st.c.Close()
			return fmt.Errorf("transport: duplicate worker id %d", st.id)
		}
		s.seats[st.id] = st
	}
	return nil
}

// run drives the seated session for cfg.Steps BSP steps.
func (s *session) run() error {
	for step := 0; step < s.cfg.Steps; step++ {
		s.agg.BeginStep()
		for w := range s.seats {
			if err := s.pushFrom(w, step); err != nil {
				return err
			}
		}
		pull, _, err := s.agg.FinishStep()
		if err != nil {
			return fmt.Errorf("transport: shard %d step %d: %w", s.cfg.Shard, step, err)
		}
		s.pulls[0], s.pulls[1], s.done = pull, nil, step
		if s.view != nil {
			s.pulls[1] = s.view.OwnerPull()
		}
		if s.cfg.Resilient {
			s.keep()
		}
		for w, st := range s.seats {
			if st == nil {
				continue // severed during this step: its replay is re-answered
			}
			if err := s.sendPull(st); err != nil && !s.sever(w) {
				return err
			}
		}
	}
	for w := range s.seats {
		if err := s.settle(w); err != nil {
			return err
		}
	}
	return nil
}

// keep points pulls at copies of themselves in kept, for the replays a
// resilient session answers after the next push has reached the
// aggregator.
//
//3lc:noalloc
func (s *session) keep() {
	for o, pull := range s.pulls {
		if pull == nil {
			continue
		}
		k := slices.Grow(s.kept[o][:0], len(pull))[:len(pull)]
		for i, wire := range pull {
			k[i] = append(k[i][:0], wire...)
		}
		s.kept[o], s.pulls[o] = k, k
	}
}

// sever tears down seat w after a failure if the seat can recover
// through reconnect-and-replay (resilient session, resilient
// connection); it reports whether the failure was absorbed.
func (s *session) sever(w int) bool {
	st := s.seats[w]
	if !s.cfg.Resilient || st == nil || !st.fc.resilient {
		return false
	}
	st.c.Close()
	s.seats[w] = nil
	return true
}

// reacquireTimeout bounds one wait for a worker's reconnect (and the
// per-worker settle after the last step): the configured read deadline
// when set — it already must exceed a full step, which dominates any
// client backoff — or 5s.
func (s *session) reacquireTimeout() time.Duration {
	if s.cfg.Timeouts.Read > 0 {
		return s.cfg.Timeouts.Read
	}
	return 5 * time.Second
}

// reacquire accepts connections until worker w's seat is refilled,
// replacing any other worker seats whose reconnects arrive first.
// Handshake failures are tolerated; the wait for w is deadline-bounded
// so a worker that never returns fails the step instead of wedging it.
func (s *session) reacquire(w int) error {
	type deadliner interface{ SetDeadline(time.Time) error }
	if dl, ok := s.ln.(deadliner); ok {
		dl.SetDeadline(time.Now().Add(s.reacquireTimeout()))
		defer dl.SetDeadline(time.Time{})
	}
	for s.seats[w] == nil {
		st, err := s.accept()
		if errors.Is(err, errListener) {
			if IsTimeout(err) {
				return fmt.Errorf("transport: shard %d: worker %d did not reconnect within %v: %w",
					s.cfg.Shard, w, s.reacquireTimeout(), err)
			}
			return err
		}
		if err != nil {
			continue // malformed handshake: keep waiting for the worker
		}
		if !st.fc.resilient {
			// Only resilient clients may (re)join mid-run: anything else
			// is a stray peer, not a recovering seat.
			st.c.Close()
			continue
		}
		if old := s.seats[st.id]; old != nil {
			old.c.Close()
		}
		s.seats[st.id] = st
	}
	return nil
}

// errRefused marks a push the aggregator refused once it had arrived
// whole: the push's fault, not the connection's, and the aggregator may
// hold part of it, so no replay can recover it.
var errRefused = errors.New("push refused")

// pushFrom drives worker w's seat through one step's push. A failure of
// the connection on a resilient seat severs it and waits for the worker's
// reconnect-and-replay instead of failing the session.
func (s *session) pushFrom(w, step int) error {
	for {
		if s.seats[w] == nil {
			if err := s.reacquire(w); err != nil {
				return err
			}
		}
		err := s.readPush(s.seats[w], step)
		if err == nil || errors.Is(err, errRefused) || !s.sever(w) {
			return err
		}
	}
}

// readPush consumes one seat's push for step and hands it to the
// aggregator once it has arrived whole. On a resilient seat a replay of
// the PREVIOUS step's push — the worker lost that step's pull and
// reconnected — is answered from the retained pull and dropped, the
// dedupe half of at-most-once application, before reading on for the
// current push.
//
//3lc:noalloc
func (s *session) readPush(st *seat, step int) error {
	for {
		replay := st.fc.resilient && s.applied[st.id] == step-1
		s.push.reset()
		f, err := st.read(s.push.next(), step, replay)
		var n int
		if err == nil {
			n, err = s.recvPush(st, f, step, replay)
		}
		if err != nil {
			return fmt.Errorf("transport: shard %d step %d push from worker %d: %w", s.cfg.Shard, step, st.id, err)
		}
		if int(f.step) != step {
			if err := s.sendPull(st); err != nil {
				return err
			}
			continue // the current step's push follows on this connection
		}
		if _, err := s.agg.AddPush(st.id, s.push.wires); err != nil {
			return fmt.Errorf("transport: shard %d step %d push from worker %d: %w: %w", s.cfg.Shard, step, st.id, errRefused, err)
		}
		s.applied[st.id] = step
		s.tr.push.Add(int64(n))
		return nil
	}
}

// recvPush reads a push from its first run, f, already read, to its
// MsgShardPushLast, into s.push, and returns the payload bytes received.
// A worker sends every tensor of the shard — a zero-length wire, the empty
// wire, for a tensor the seat does not push (ps.Pushes) and for a
// non-transmitting scheme's off step — in any order, each exactly once:
// a duplicate or missing slot fails the push before any of it reaches the
// aggregator, and the aggregator refuses a push of another tensor count.
//
//3lc:noalloc
func (s *session) recvPush(st *seat, f frame, step int, replay bool) (int, error) {
	q, at, n := &s.push, f.step, 0
	for {
		if f.t != MsgShardPushRun && f.t != MsgShardPushLast {
			return 0, fmt.Errorf("transport: expected a push run, got type %d", f.t)
		}
		if f.step != at {
			return 0, fmt.Errorf("transport: a run of step %d in the push of step %d", f.step, at)
		}
		if err := q.take(f.body, maxSlots); err != nil {
			return 0, err
		}
		n += len(f.raw)
		if f.t == MsgShardPushLast {
			break
		}
		var err error
		if f, err = st.read(q.next(), step, replay); err != nil {
			return 0, err
		}
	}
	if q.got != len(q.wires) {
		return 0, fmt.Errorf("transport: %d tensors up to slot %d (incomplete push)", q.got, len(q.wires)-1)
	}
	return n, nil
}

// sendPull answers one seat with the pull of the last finished step as its
// worker is sent it (ps.Pulls: the owner's view to the owner, the shared
// pull to everyone else; an owner-only slot of the owner's is an empty
// wire). It is encoded once per step, view and contract, a run closed at
// every flushBytes and at the end, and written to each seat it is owed to
// in one write.
//
//3lc:noalloc
func (s *session) sendPull(st *seat) error {
	if s.done < 0 {
		return fmt.Errorf("transport: shard %d: no finished step to answer worker %d from", s.cfg.Shard, st.id)
	}
	o, k := 0, 0
	if st.id == ps.Owner && s.pulls[1] != nil {
		o = 1
	}
	if st.fc.resilient {
		k = 1
	}
	q := &s.pullBuf[o][k]
	if s.pullAt[o][k] != s.done {
		q.reset()
		if err := q.putRuns(&st.fc, MsgShardPullRun, uint32(s.done), s.pulls[o]); err != nil {
			return fmt.Errorf("transport: shard %d step %d pull: %w", s.cfg.Shard, s.done, err)
		}
		s.pullAt[o][k] = s.done
	}
	if err := st.write(q, 0); err != nil {
		return fmt.Errorf("transport: shard %d step %d pull to worker %d: %w", s.cfg.Shard, s.done, st.id, err)
	}
	s.tr.pull.Add(int64(q.len() - frameHeaderLen*q.n))
	return nil
}

// settle is the end-of-run for a seat that may still be owed the final
// pull. A resilient worker must confirm with MsgShardBye before its seat
// retires, and is replayed the final pull if it reconnects for it; one
// that neither confirms nor reconnects within the reacquire window is
// presumed done — the only frames a resilient client sends here are byes
// and replays, and a client still missing its pull redials well within
// the window.
func (s *session) settle(w int) error {
	for tries := 0; tries <= 16; tries++ {
		st := s.seats[w]
		if st == nil {
			if err := s.reacquire(w); err != nil {
				if IsTimeout(err) {
					return nil // no reconnect: the worker finished and went away
				}
				return err
			}
			continue
		}
		if !st.fc.resilient {
			return nil
		}
		if s.cfg.Timeouts.Read == 0 {
			st.c.SetReadDeadline(time.Now().Add(s.reacquireTimeout()))
		}
		// One past the last step: the only push that parses is a replay of
		// the final one, and only from a seat that has it aggregated.
		replay := s.applied[w] == s.done
		s.push.reset()
		f, err := st.read(s.push.next(), s.done+1, replay)
		if err == nil && f.t != MsgShardBye {
			if int(f.step) != s.done {
				return fmt.Errorf("transport: shard %d: unexpected type-%d frame from worker %d after the final step", s.cfg.Shard, f.t, w)
			}
			_, err = s.recvPush(st, f, s.done+1, replay)
		}
		switch {
		case err != nil:
			// EOF, reset, timeout or corruption: the worker is done (the
			// reacquire above times out) or it is reconnecting — which only
			// a resilient one does.
			if !s.sever(w) {
				return nil
			}
		case f.t == MsgShardBye:
			return nil // positive confirmation: the final pull was applied
		default:
			if err := s.sendPull(st); err != nil && !s.sever(w) {
				return err
			}
		}
	}
	return fmt.Errorf("transport: shard %d: worker %d cannot settle its final pull", s.cfg.Shard, w)
}
