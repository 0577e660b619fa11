package main

import (
	"net"
	"time"
)

// wireMark holds the byte timestamps of one connection in one step, in
// nanoseconds since the pass began: when the last push byte was handed to
// the socket, and when the first and the last pull byte came back.
type wireMark struct {
	lastWrite int64
	firstRead int64
	lastRead  int64
}

// meterConn counts bytes and calls on a worker-side connection and stamps
// the byte events the transport ledger is cut at. It is installed through
// the transport.Dialer hook in the traced pass only. The worker sets step
// before each exchange; within a step a connection is written, then read,
// by goroutines the exchange call starts and joins, so plain fields do.
type meterConn struct {
	net.Conn
	epoch time.Time
	step  int
	marks []wireMark

	wrote, read   int64
	writes, reads int64
}

func newMeterConn(c net.Conn, epoch time.Time, steps int) *meterConn {
	return &meterConn{Conn: c, epoch: epoch, marks: make([]wireMark, steps)}
}

func (c *meterConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.writes++
	c.wrote += int64(n)
	if n > 0 && c.step < len(c.marks) {
		c.marks[c.step].lastWrite = int64(time.Since(c.epoch))
	}
	return n, err
}

func (c *meterConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.reads++
	c.read += int64(n)
	if n > 0 && c.step < len(c.marks) {
		m := &c.marks[c.step]
		now := int64(time.Since(c.epoch))
		if m.firstRead == 0 {
			m.firstRead = now
		}
		m.lastRead = now
	}
	return n, err
}
