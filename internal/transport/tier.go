package transport

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"threelc/internal/ps"
)

// DialedTier is the ps.Tier whose aggregation runs behind connections: W
// seats, each a worker's own ShardClient. A session copies seat w's wires
// aside (whole-set tier) or hands each to seat w's connections as it is
// fed (streamed tier), and FinishStep returns the pull seat 0
// receives. Seat 0 is the owner (ps.Owner), so that is the owner's view of
// the pull (ps.Pulls) wherever the servers send one: its owner-only slots
// are empty, the other seats are sent them full, and a driver completes it
// for the other workers with the owner's own pushes, which the servers
// relay there (train.Run does, with ps.Worker.Complete). The sessions of a step may be fed from W goroutines
// at once: the serving session engine reads pushes in seat order, so seat
// w's bytes never wait behind seat w−1's compressor. The tier holds no
// training state (the servers own optimizer and pull contexts), and the
// servers' barrier waits for every seat, so a step must push all of them.
//
// FinishStep does not wait for the other seats' copies of the pull. It
// could not: a seat that lost its connection mid-step (a killed primary, a
// resilient redial) is re-answered when the session next reads that seat,
// which is after seat 0 has pushed the following step — which is why the
// pull kept is seat 0's and not a full one. So a seat's round trip may still
// be in flight one step later — never two: the barrier for step s+1 needs
// the push that seat sends only once its round trip of step s is done — and
// its next one queues behind it.
type DialedTier struct {
	seats  []*dialedSeat
	stream bool
	step   int
	wg     sync.WaitGroup // round trips started and not finished

	failed   chan struct{} // closed by the first round trip that fails
	failOnce sync.Once
	failErr  error
}

var _ ps.Tier = (*DialedTier)(nil)

// dialedSeat is one seat and, recycled every step, its push session: a
// queue of wires that the seat's round trip sends as they come (streamed
// tier) or copies aside until End (whole-set tier).
type dialedSeat struct {
	t    *DialedTier
	conn *ShardClient
	open bool               // BeginPush ran this step
	ch   chan<- IndexedWire // the open session
	done chan struct{}      // closed when the latest session's round trip has finished
	// staged is the whole-set push, copied: a round trip re-sent after a
	// reconnect reads it while the worker already compresses the next step
	// into its own buffers.
	staged [][]byte
	pull   [][]byte // a streamed tier keeps only seat 0's, the owner's (non-nil there)
}

// DialTier dials `seats` seats — dial(w) opens seat w, under whatever id,
// address and client configuration the topology gives it — and returns the
// tier over them; a failed dial closes the seats already open. A streamed
// tier sends runs (PushPullStream); a whole-set tier makes one PushPull
// round trip a seat a step.
func DialTier(seats int, stream bool, dial func(seat int) (*ShardClient, error)) (*DialedTier, error) {
	if seats < 1 {
		return nil, fmt.Errorf("transport: a dialed tier needs at least 1 seat, got %d", seats)
	}
	t := &DialedTier{stream: stream, failed: make(chan struct{})}
	for w := 0; w < seats; w++ {
		conn, err := dial(w)
		if err != nil {
			t.Close()
			return nil, fmt.Errorf("transport: dial seat %d: %w", w, err)
		}
		t.seats = append(t.seats, &dialedSeat{t: t, conn: conn})
	}
	if stream {
		t.seats[0].pull = make([][]byte, len(t.seats[0].conn.asn.ShardOf))
	}
	return t, nil
}

// Seats returns the number of worker seats: what a driver checks its worker
// count against, and how it tells a dialed tier from an in-process one.
func (t *DialedTier) Seats() int { return len(t.seats) }

// NumShards returns how many shard servers each seat is connected to.
func (t *DialedTier) NumShards() int { return len(t.seats[0].conn.conns) }

// fail records the tier's first failure and wakes FinishStep.
func (t *DialedTier) fail(err error) {
	t.failOnce.Do(func() {
		t.failErr = err
		close(t.failed)
	})
}

// BeginStep opens a step. The servers open theirs on their own.
func (t *DialedTier) BeginStep() {}

// BeginPush opens seat worker's push for the step and starts its round
// trip, behind the seat's previous one; call it before FinishStep, from the
// goroutine that calls that. The session's methods may then be called from
// any one goroutine, and Tensor from several. Wires must stay valid until
// FinishStep returns.
func (t *DialedTier) BeginPush(worker int) ps.PushSession {
	s := t.seats[worker]
	// A streamed push is as deep as the model has tensors, so the compressor
	// never blocks on the wire; a staged one is copied as it is handed over.
	depth := 0
	if t.stream {
		depth = len(s.conn.asn.ShardOf)
	}
	ch, prev, done, step := make(chan IndexedWire, depth), s.done, make(chan struct{}), t.step
	s.open, s.ch, s.done = true, ch, done
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		defer close(done)
		if prev != nil {
			<-prev
		}
		var err error
		select {
		case <-t.failed:
			for range ch { // a failed tier sends nothing more, but the feeder must not block
			}
			return
		default:
		}
		if t.stream {
			err = s.conn.PushPullStream(step, ch, s.pulled)
		} else {
			err = s.pushPullStaged(step, ch)
		}
		if err != nil {
			t.fail(err)
		}
	}()
	return s
}

// pushPullStaged copies the session's wires aside as they are fed and, once
// it has ended, makes the whole-set round trip.
func (s *dialedSeat) pushPullStaged(step int, ch <-chan IndexedWire) (err error) {
	for i := range s.staged {
		s.staged[i] = s.staged[i][:0]
	}
	for iw := range ch {
		if iw.I < 0 {
			err = fmt.Errorf("transport: push tensor index %d out of range", iw.I)
			continue
		}
		for iw.I >= len(s.staged) {
			s.staged = append(s.staged, nil)
		}
		s.staged[iw.I] = append(s.staged[iw.I][:0], iw.Wire...)
	}
	if err == nil {
		s.pull, err = s.conn.PushPull(step, s.staged)
	}
	return err
}

// pulled takes one tensor of a streamed pull off the connection's scratch:
// seat 0 copies it out, the other seats' copies — the same, but for the
// owner-only slots seat 0 is sent empty — are dropped.
func (s *dialedSeat) pulled(gi int, wire []byte) error {
	if s.pull != nil {
		s.pull[gi] = append(s.pull[gi][:0], wire...)
	}
	return nil
}

func (s *dialedSeat) Set(wires [][]byte) error {
	for i, w := range wires {
		s.ch <- IndexedWire{I: i, Wire: w}
	}
	return nil
}

func (s *dialedSeat) Tensor(i int, wire []byte) error {
	s.ch <- IndexedWire{I: i, Wire: wire}
	return nil
}

// End sends the push on its way without waiting for the pull: a driver that
// ends its seats one after another must not block on a barrier the later
// seats have yet to reach.
func (s *dialedSeat) End() error {
	close(s.ch)
	return nil
}

// FinishStep waits for seat 0's round trip and returns its pull — the
// owner's — valid until seat 0's next session ends. The duration is zero: the tier's
// codec time is spent on the servers, out of sight. The first failure of
// any seat's round trip fails the step and every later one, and a step in
// which some seat opened no push fails at once — the servers' barrier would
// wait for that seat forever.
func (t *DialedTier) FinishStep() ([][]byte, time.Duration, error) {
	for w, s := range t.seats {
		if !s.open {
			t.fail(fmt.Errorf("transport: dialed tier step %d: seat %d did not push (the serving barrier waits for every seat)", t.step, w))
		}
		s.open = false
	}
	select {
	case <-t.seats[0].done:
	case <-t.failed:
	}
	select {
	case <-t.failed: // also one that raced seat 0's success
		return nil, 0, t.failErr
	default:
	}
	t.step++
	return t.seats[0].pull, 0, nil
}

// AppendState appends nothing: the tier holds no training state.
func (t *DialedTier) AppendState(dst []byte) []byte { return dst }

// RestoreState accepts only the empty state AppendState writes.
func (t *DialedTier) RestoreState(src []byte) error {
	if len(src) != 0 {
		return errors.New("transport: a dialed tier holds no state to restore (its servers own the optimizer and pull contexts)")
	}
	return nil
}

// Close waits for the round trips still in flight — the other seats'
// copies of the last pull — and closes every seat's connections; on a tier
// that has failed it closes them first, which is what ends the round trips
// the failure left waiting on the servers. Every opened session must have
// been ended.
func (t *DialedTier) Close() error {
	select {
	case <-t.failed:
	default:
		t.wg.Wait()
	}
	var first error
	for _, s := range t.seats {
		if err := s.conn.Close(); err != nil && first == nil {
			first = err
		}
	}
	t.wg.Wait()
	return first
}
