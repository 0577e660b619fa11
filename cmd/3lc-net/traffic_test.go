package main

import (
	"encoding/binary"
	"net"
	"runtime"
	"sync/atomic"
	"testing"

	"threelc/internal/ps"
	"threelc/internal/train"
	"threelc/internal/transport"
)

// TestNonOwnersExemptBytesLeaveTheSocket counts what ps.Pushes takes off a
// real link. The golden counts are TrafficBytes() of this 2-worker, 6-step
// 3LC run at the commit before the rule, when worker 1 still sent the
// batch-norm vectors the servers skipped: the push count of every topology
// is that count less worker 1's exempt wires, to the byte, and ps.Pushes
// did not move the pull count.
//
// Since the packed float32 wire the exempt tensors that still cross — worker
// 0's batch-norm vectors, both workers' head bias, and all of them on the
// pull — are shorter as well, by the same bytes in every topology because
// the wires are the same: packedPush and packedPull are what the repacking
// takes off the run's counts, so the counts of the commit before it are
// the ones here plus those.
//
// Since ps.Pulls the owner is not sent its owner-only tensors either: its
// slots of every pull are empty (a zero length in a wire set or a run's
// entry), and ownerPull is what that takes off the pull
// count — the six steps' packed batch-norm deltas, the same bytes in every
// topology.
//
// Since the owner pushes the update of its owner-only tensors instead of
// their gradient, and the servers relay it, its push of those tensors is
// shorter again: ownerUpdate is what that takes off the push count — the
// six steps' batch-norm vectors packed as gradients less packed as updates,
// the same bytes in every topology — and the pull count does not move,
// because the relayed update is the delta the servers used to send, byte
// for byte. In a run three of those shorter wires also take a one-byte
// length where they took two, so the runFraming push entry is 3 bytes
// larger than when the owner pushed gradients (983).
//
// Since a streamed exchange sends a run per flush instead of a frame per
// tensor, its tensors cost a slot delta and a length, both uvarints, where
// they cost a 12-byte header and a 4-byte slot, and a push's end is its
// last run instead of a 12-byte frame of its own: runFraming is what that
// takes off the push and pull counts. The push's is the same at one shard
// and two — the second shard's run header is the end frame the first no
// longer sends. Every exchange is a stream of runs, so every row takes
// it. A run costs its header, so the count depends on how many flushes a
// push took: where the compressor is ahead of the wire, as it usually is
// on one processor, a push is one run a shard. When the compressor is preempted
// mid-push, the idle-producer flush splits the push into one run more,
// which costs one more 12-byte shard header: its first entry's slot delta
// is a byte either way while a shard holds under 64 tensors. So the
// servers' connections count the push runs they read (runListener), and
// the expected push count adds a header for every run past one a push.
// The streamed rows run on one processor, as the benchmark does, and the
// others at the host's count, where pushes split more often: both hold the
// same counts once the splits are added.
func TestNonOwnersExemptBytesLeaveTheSocket(t *testing.T) {
	const packedPush, packedPull, ownerUpdate = 1572, 1308, 318
	topologies := []struct {
		name       string
		set        func(o *options)
		push, pull int64 // before ps.Pushes
		ownerPull  int64
		runFraming [2]int64 // push, pull
		oneProc    bool
	}{
		{"1 shard", func(o *options) {}, 19746, 22492, 1770, [2]int64{986, 831}, false},
		{"1 shard streamed", func(o *options) {}, 19746, 22492, 1770, [2]int64{986, 831}, true},
		{"2 shards", func(o *options) { o.shards = 2 }, 19890, 22492, 1770, [2]int64{986, 687}, false},
		{"2 shards streamed", func(o *options) { o.shards = 2 }, 19890, 22492, 1770, [2]int64{986, 687}, true},
	}
	for _, topo := range topologies {
		t.Run(topo.name, func(t *testing.T) {
			if topo.oneProc {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			}
			o := testOptions()
			o.workers = 2
			topo.set(&o)
			if err := o.check(); err != nil {
				t.Fatal(err)
			}
			cfg, f, err := o.flat()
			if err != nil {
				t.Fatal(err)
			}
			var runs atomic.Int64
			for s, ln := range f.lns {
				f.lns[s] = runListener{ln, &runs}
			}
			if _, err := train.Run(cfg); err != nil {
				t.Fatal(err)
			}
			if err := f.drain(); err != nil {
				t.Fatal(err)
			}
			if n := len(f.global.Params()); n >= 64 {
				t.Fatalf("the model has %d tensors; a split run's first slot delta would not be one byte", n)
			}
			pushes := int64(o.steps * o.workers * o.shards)
			split := runs.Load() - pushes // runs past one a push and shard
			if split < 0 {
				t.Fatalf("the servers read %d push runs, want at least %d: one a push and shard", runs.Load(), pushes)
			}
			var dead int64 // what worker 1 no longer sends in a step
			for _, p := range f.global.Params() {
				if !ps.Pushes(1, p) {
					dead += int64(1 + 4*p.W.Len())
				}
			}
			if dead == 0 {
				t.Fatal("the model has no owner-only tensor")
			}
			want := topo.push - int64(o.steps)*dead - packedPush - ownerUpdate - topo.runFraming[0] + transport.ShardHeaderLen*split
			push, pull := f.srvs.traffic()
			if push != want {
				t.Errorf("push bytes %d, want %d = %d - %d steps x %d - %d packed - %d owner's update - %d run framing + %d split runs x %d",
					push, want, topo.push, o.steps, dead, packedPush, ownerUpdate, topo.runFraming[0], split, transport.ShardHeaderLen)
			}
			if want := topo.pull - packedPull - topo.ownerPull - topo.runFraming[1]; pull != want {
				t.Errorf("pull bytes %d, want %d = %d - %d packed - %d the owner is not sent - %d run framing",
					pull, want, topo.pull, packedPull, topo.ownerPull, topo.runFraming[1])
			}
		})
	}
}

// runListener hands a server connections that count, in runs, the push
// runs the server reads off them.
type runListener struct {
	net.Listener
	runs *atomic.Int64
}

func (l runListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &runConn{Conn: c, runs: l.runs}, nil
}

// runConn counts the frames of type MsgShardPushRun or MsgShardPushLast in
// what is read off it, following the frames' length prefixes (a 4-byte
// little-endian length of what follows it, then the type byte) across
// reads.
type runConn struct {
	net.Conn
	runs *atomic.Int64
	head []byte // the next frame's prefix and type byte, as far as read
	skip int    // bytes of the current frame still to pass over
}

func (c *runConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	for q := p[:n]; len(q) > 0; {
		if c.skip > 0 {
			k := min(c.skip, len(q))
			c.skip, q = c.skip-k, q[k:]
			continue
		}
		k := min(5-len(c.head), len(q))
		c.head, q = append(c.head, q[:k]...), q[k:]
		if len(c.head) == 5 {
			if t := transport.MsgType(c.head[4]); t == transport.MsgShardPushRun || t == transport.MsgShardPushLast {
				c.runs.Add(1)
			}
			c.skip, c.head = int(binary.LittleEndian.Uint32(c.head))-1, c.head[:0]
		}
	}
	return n, err
}
