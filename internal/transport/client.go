package transport

import "fmt"

// Client is a worker's connection to one shard server: the whole-set round
// trip every shard connection of a ShardClient makes, and, dialed alone by
// DialTimeoutDialer, an unplaced worker's connection to a NewServer.
type Client struct {
	link
	pullWires [][]byte // parsed pull set, slice headers recycled each step
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
// step and blocks until the server's model-delta wires arrive.
// The returned wires alias a connection-owned scratch buffer that is
// recycled on the next PushPull call; consume (decompress) them before
// pushing again, which the BSP step loop does naturally.
//
//3lc:noalloc
func (c *Client) PushPull(step int, wires [][]byte) ([][]byte, error) {
	if err := c.send(frame{t: MsgShardPush, step: uint32(step), set: wires}); err != nil {
		return nil, fmt.Errorf("transport: shard %d push step %d: %w", c.fc.shard, step, err)
	}
	f, err := c.read(step, false)
	if err != nil {
		return nil, fmt.Errorf("transport: shard %d pull step %d: %w", c.fc.shard, step, err)
	}
	if f.t != MsgShardPull {
		return nil, fmt.Errorf("transport: shard %d: expected pull, got type %d", c.fc.shard, f.t)
	}
	c.pullWires, _, err = ParseWireSetInto(c.pullWires, f.body)
	return c.pullWires, err
}

// Close terminates the connection.
func (c *Client) Close() error { return c.c.Close() }
