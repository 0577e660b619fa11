// ShardReplica: the standby half of a replicated parameter-server shard.
//
// During normal operation the primary (a ShardServer with ReplicaAddr
// set) forwards every validated worker push over a single upstream
// connection; the replica buffers each step's pushes until all Workers
// have arrived, then applies them to its own ps sub-server in worker-id
// order — the exact aggregation sequence the primary and the in-process
// tier use — so its optimizer state and weights remain byte-identical to
// the primary's at every step boundary.
//
// When the primary dies, workers fail over (ShardClientConfig.Replicas):
// each reconnects here with the normal v2 hello and replays its in-flight
// step's push. Replays are deduplicated on the (tenant, worker, step)
// identity every push frame carries: a push the primary managed to
// forward before dying is recognized and not applied twice, a worker
// whose step the replica has already completed (the primary died between
// forwarding the last push and broadcasting pulls) is answered
// immediately from the retained last pull, and a frame from another
// tenant — or a stale epoch of this one — is rejected outright rather
// than mistaken for a replay of a same-numbered worker's push. A replay
// that overtakes the primary's last forwards (nothing orders the two
// connections) waits for the steps before it. From then on the replica
// serves the remaining steps exactly like a primary.
package transport

import (
	"fmt"
	"net"
	"sync"

	"threelc/internal/ps"
)

// ShardReplica serves one shard's replica endpoint.
type ShardReplica struct {
	traffic
	ps  *ps.Job
	cfg ShardServerConfig
	ln  net.Listener
}

// NewShardReplica wraps sub (a ps sub-job over this shard's tensors,
// built from its OWN model replica — it must not share parameter tensors
// with the primary's sub-job) to stand by for cfg.Workers workers and
// cfg.Steps steps on ln.
func NewShardReplica(ln net.Listener, sub *ps.Job, cfg ShardServerConfig) *ShardReplica {
	if cfg.NumShards < 1 {
		cfg.NumShards = 1
	}
	return &ShardReplica{ps: sub, cfg: cfg, ln: ln}
}

// repConn is one inbound connection: the primary's forwarding link or a
// failed-over worker.
type repConn struct {
	link
	lastPush int // step of the worker's most recent direct push
	closed   bool
}

// repEvent is one connection's admitted hello, frame, or failure,
// delivered to the serve loop. Payloads are copied out of the reader's
// scratch: the loop may buffer them across many subsequent frames.
type repEvent struct {
	wc      *repConn
	hello   bool
	t       MsgType
	payload []byte
	err     error
}

// Serve runs the replica until it has observed all cfg.Steps steps —
// through primary forwarding, failed-over workers, or any mix — then
// closes its connections and returns. It never initiates traffic to
// workers that have not connected to it.
func (r *ShardReplica) Serve() error {
	events := make(chan repEvent, 4*(r.cfg.Workers+1))
	done := make(chan struct{})
	var connsMu sync.Mutex
	var all []net.Conn
	defer func() {
		// Unblock and retire every reader goroutine, then close sockets.
		close(done)
		connsMu.Lock()
		defer connsMu.Unlock()
		r.ln.Close()
		for _, c := range all {
			c.Close()
		}
	}()

	// Accept loop: each connection gets a reader goroutine that
	// handshakes, registers via an event, and then streams frames.
	go func() {
		for {
			c, err := r.ln.Accept()
			if err != nil {
				return // listener closed: Serve is done
			}
			connsMu.Lock()
			all = append(all, c)
			connsMu.Unlock()
			go r.readConn(c, events, done)
		}
	}()

	pending := make(map[int][]byte) // worker id -> current step's pushed wire set
	var workers []*repConn          // failed-over worker connections
	var upstream *repConn
	// ahead holds worker pushes for a step after the current one: a worker
	// that failed over can reach this loop before the forwards — or the
	// hello — of the primary it left do (two connections, two readers, and
	// a primary that never waited for its replica). At each step's end
	// those held by then, ready of them, are taken up again. Once the
	// upstream has come and gone nothing is in flight behind it, and a
	// push ahead is the violation it looks like.
	var ahead []repEvent
	ready, gone := 0, false
	var lastPull []byte // retained pull frame of the last finished step
	finished := 0       // completed steps
	var wires [][]byte  // wire-set parse scratch
	// Everything a replica sends is the plain pull of its one job.
	pullCodec := frameCodec{shard: uint16(r.cfg.Shard), tenant: r.cfg.Tenant, epoch: r.cfg.Epoch}

	for finished < r.cfg.Steps {
		var ev repEvent
		if ready > 0 {
			ev, ahead, ready = ahead[0], ahead[1:], ready-1
		} else {
			ev = <-events
		}
		switch {
		case ev.err != nil:
			if ev.wc == nil {
				return ev.err // listener-level failure
			}
			// A dead upstream means the primary crashed (or finished and
			// closed): keep serving — the workers will fail over to us. A
			// dead worker conn just drops out of the broadcast set.
			ev.wc.closed = true
			if ev.wc.fc.upstream {
				upstream, gone = nil, true
			}
		case ev.hello && ev.wc.fc.upstream:
			if upstream != nil {
				return fmt.Errorf("transport: replica shard %d: second upstream connection", r.cfg.Shard)
			}
			upstream, gone = ev.wc, false
		case ev.hello:
			for _, wc := range workers {
				if !wc.closed && wc.fc.worker == ev.wc.fc.worker {
					return fmt.Errorf("transport: replica shard %d: duplicate worker %d", r.cfg.Shard, ev.wc.fc.worker)
				}
			}
			workers = append(workers, ev.wc)
		case ev.t == MsgReplicaPush && ev.wc.fc.upstream, ev.t == MsgShardPush && !ev.wc.fc.upstream:
			// Replay dedupe is keyed on (tenant, worker, step): the codec
			// matched the tenant, a push one step behind is a replay, and
			// the worker id completes the identity.
			f, err := ev.wc.fc.parseFrame(ev.t, ev.payload, finished, true)
			if err != nil && !gone && !ev.wc.fc.upstream {
				if _, e := ev.wc.fc.parseFrame(ev.t, ev.payload, int(f.step), false); e == nil && int(f.step) > finished {
					ahead = append(ahead, ev)
					continue
				}
			}
			if err != nil {
				return fmt.Errorf("transport: replica shard %d: %w", r.cfg.Shard, err)
			}
			w, step := int(f.worker), int(f.step)
			if w >= r.cfg.Workers {
				return fmt.Errorf("transport: replica shard %d: bad worker id %d", r.cfg.Shard, w)
			}
			if !ev.wc.fc.upstream {
				ev.wc.lastPush = step
			}
			r.push.Add(int64(len(ev.payload)))
			if step == finished {
				if _, dup := pending[w]; !dup {
					pending[w] = f.body
				}
			} else if !ev.wc.fc.upstream {
				// Replay of a step this replica already completed: the
				// primary died after the full step was forwarded. Nothing
				// to apply — answer the worker from the retained pull.
				r.sendPull(ev.wc, lastPull)
			}
		default:
			return fmt.Errorf("transport: replica shard %d: unexpected frame type %d", r.cfg.Shard, ev.t)
		}

		if len(pending) < r.cfg.Workers {
			continue
		}
		// Full step: apply in worker-id order (float accumulation order is
		// state), advance the sub-job, retain the pull, answer the
		// workers that pushed this step directly.
		r.ps.BeginStep()
		for id := 0; id < r.cfg.Workers; id++ {
			var err error
			if wires, _, err = ParseWireSetInto(wires, pending[id]); err == nil {
				_, err = r.ps.AddPush(id, wires)
			}
			if err != nil {
				return fmt.Errorf("transport: replica shard %d worker %d: %w", r.cfg.Shard, id, err)
			}
		}
		pull, _, err := r.ps.FinishStep()
		if err != nil {
			return fmt.Errorf("transport: replica shard %d: %w", r.cfg.Shard, err)
		}
		if lastPull, err = pullCodec.appendFrame(lastPull[:0], frame{t: MsgShardPull, step: uint32(finished), set: pull}); err != nil {
			return fmt.Errorf("transport: replica shard %d: %w", r.cfg.Shard, err)
		}
		for _, wc := range workers {
			if !wc.closed && wc.lastPush == finished {
				r.sendPull(wc, lastPull)
			}
		}
		clear(pending)
		finished++
		ready = len(ahead)
	}
	return nil
}

// sendPull writes the retained pull frame to a failed-over worker; a
// connection that cannot take it drops out of the broadcast set.
func (r *ShardReplica) sendPull(wc *repConn, pull []byte) {
	if err := wc.write(pull); err != nil {
		wc.closed = true
		return
	}
	r.pull.Add(int64(len(pull) - frameHeaderLen))
}

// readConn handshakes one inbound connection and streams its frames to
// the serve loop, copying each payload out of the reader scratch.
func (r *ShardReplica) readConn(c net.Conn, events chan<- repEvent, done <-chan struct{}) {
	send := func(ev repEvent) bool {
		select {
		case events <- ev:
			return true
		case <-done:
			return false
		}
	}
	wc := &repConn{link: link{to: r.cfg.Timeouts}, lastPush: -1}
	wc.attach(c)
	// Every read is deadline-armed (cfg.Timeouts.Read must exceed a step
	// interval, the frame cadence of both the upstream forwarding link
	// and failed-over workers): a silently dead peer surfaces as a
	// timeout event instead of parking this reader forever.
	for hello := true; ; hello = false {
		wc.to.beforeRead(c)
		t, payload, err := wc.fr.ReadFrame()
		ev := repEvent{wc: wc, hello: hello, t: t, err: err}
		switch {
		case err != nil:
		case hello:
			var hash uint32
			if wc.fc, hash, ev.err = parseHello(t, payload); ev.err == nil {
				ev.err = r.cfg.admit(&wc.fc, hash, true)
			}
			if ev.err != nil {
				ev.err = fmt.Errorf("transport: replica shard %d: %w", r.cfg.Shard, ev.err)
			}
		default:
			ev.payload = append([]byte(nil), payload...)
		}
		if !send(ev) || ev.err != nil {
			return
		}
	}
}
