package transport

import "fmt"

// Client is a worker's connection to one shard server: the exchange every
// shard connection of a ShardClient makes, and, dialed alone by
// DialTimeoutDialer, an unplaced worker's connection to a NewServer.
type Client struct {
	link
	pulled seq // the last pull received
	// fault is the first failed write of the push in progress on a
	// resilient connection: nothing more is written until the retry that
	// replays the push (ShardClient.finish).
	fault error
}

// DialTimeoutDialer connects to the server at addr through d (nil: plain
// TCP; the chaos/fault-injection hook) and registers as workerID, unplaced:
// shard 0, placement hash 0, what NewServer expects. Every frame read and
// write on the connection is bounded by `to`, so a silently dead server
// surfaces as a net.Error timeout from PushPull instead of an indefinite
// hang; the zero Timeouts sets no deadline.
func DialTimeoutDialer(addr string, workerID int, to Timeouts, d Dialer) (*Client, error) {
	c := &Client{link: link{to: to, fc: frameCodec{worker: uint32(workerID)}}}
	if err := c.open(d, addr, 0); err != nil {
		return nil, err
	}
	return c, nil
}

// PushPull sends this worker's compressed gradient wires for the given
// step, one push of runs, and blocks until the server's model-delta wires
// have all arrived. The returned wires alias connection-owned buffers that
// are recycled on the next PushPull call; consume (decompress) them before
// pushing again, which the BSP step loop does naturally.
//
//3lc:noalloc
func (c *Client) PushPull(step int, wires [][]byte) ([][]byte, error) {
	defer c.reset()
	for k, w := range wires {
		if err := c.put(step, k, w); err != nil {
			return nil, fmt.Errorf("transport: shard %d push step %d: %w", c.fc.shard, step, err)
		}
	}
	c.out.endRun(&c.fc, MsgShardPushLast, uint32(step))
	if err := c.pullAfter(step, len(wires)); err != nil {
		return nil, fmt.Errorf("transport: shard %d step %d: %w", c.fc.shard, step, err)
	}
	return c.pulled.wires, nil
}

// put queues slot's wire on step's push and writes what is queued once
// flushBytes have gathered in the open run.
//
//3lc:noalloc
func (c *Client) put(step, slot int, wire []byte) error {
	c.out.entry(&c.fc, MsgShardPushRun, uint32(step), slot, wire)
	if c.out.open() < flushBytes {
		return nil
	}
	return c.flushPush()
}

// flushPush writes what is queued of the push. On a resilient connection
// a failed write is kept as the fault, which the exchange's retry answers
// with a redial and a replay, and the push goes on being queued.
//
//3lc:noalloc
func (c *Client) flushPush() error {
	if c.fault != nil {
		return c.out.closeRun(&c.fc)
	}
	err := c.flush()
	if err != nil && c.fc.resilient {
		c.fault, err = err, nil
	}
	return err
}

// pullAfter writes what is left of step's push — on a connection just
// re-dialed, the whole push — and receives the step's pull of n slots.
//
//3lc:noalloc
func (c *Client) pullAfter(step, n int) error {
	err := c.fault
	c.fault = nil
	if err == nil {
		err = c.flush()
	}
	if err == nil {
		err = c.recvPull(step, n)
	}
	return err
}

// recvPull reads step's pull, runs until each of n slots has arrived once,
// into c.pulled, each run into a buffer of its own and validated as it
// lands.
//
//3lc:noalloc
func (c *Client) recvPull(step, n int) error {
	q := &c.pulled
	for q.reset(); q.got < n; {
		f, err := c.read(q.next(), step, false)
		if err == nil && f.t != MsgShardPullRun {
			return fmt.Errorf("expected a pull run, got type %d", f.t)
		}
		if err == nil {
			err = q.take(f.body, n)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Close terminates the connection.
func (c *Client) Close() error { return c.c.Close() }
