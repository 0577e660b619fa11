package main

import (
	"testing"

	"threelc/internal/ps"
	"threelc/internal/train"
)

// TestNonOwnersExemptBytesLeaveTheSocket counts what ps.Pushes takes off a
// real link. The golden counts are TrafficBytes() of this 2-worker, 6-step
// 3LC run at the commit before the rule, when worker 1 still sent the
// batch-norm vectors the servers skipped: the push count of every topology
// — and a standby's second copy — is that count less worker 1's exempt
// wires, to the byte, and ps.Pushes did not move the pull count.
//
// Since the packed float32 wire the exempt tensors that still cross — worker
// 0's batch-norm vectors, both workers' head bias, and all of them on the
// pull — are shorter as well, by the same bytes in every topology because
// the wires are the same: packedPush and packedPull are what the repacking
// takes off the run's counts, so the counts of the commit before it are
// the ones here plus those.
//
// Since ps.Pulls the owner is not sent its owner-only tensors either: its
// slots of every pull are empty (a zero length in a wire set, an empty body
// in a per-tensor frame), and ownerPull is what that takes off the pull
// count — the six steps' packed batch-norm deltas, the same bytes in every
// topology but the v1 front door, whose seats are all sent the shared pull
// (a v1 hello has no version byte to refuse an owner built before it by).
func TestNonOwnersExemptBytesLeaveTheSocket(t *testing.T) {
	const packedPush, packedPull = 1572, 1308
	topologies := []struct {
		name       string
		set        func(o *options)
		push, pull int64 // before ps.Pushes
		ownerPull  int64
	}{
		{"v1 front door", func(o *options) {}, 18882, 21724, 0},
		{"1 shard streamed", func(o *options) { o.stream = true }, 19746, 22492, 1770},
		{"2 shards", func(o *options) { o.shards = 2 }, 19122, 22012, 1770},
		{"2 shards streamed", func(o *options) { o.shards, o.stream = 2, true }, 19890, 22492, 1770},
		{"2 shards, standbys", func(o *options) { o.shards, o.replicas = 2, true }, 19122, 22012, 1770},
	}
	for _, topo := range topologies {
		t.Run(topo.name, func(t *testing.T) {
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
			if _, err := train.Run(cfg); err != nil {
				t.Fatal(err)
			}
			if err := f.drain(); err != nil {
				t.Fatal(err)
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
			want := topo.push - int64(o.steps)*dead - packedPush
			push, pull, copies := f.traffic()
			if push != want {
				t.Errorf("push bytes %d, want %d = %d - %d steps x %d - %d packed", push, want, topo.push, o.steps, dead, packedPush)
			}
			if want := topo.pull - packedPull - topo.ownerPull; pull != want {
				t.Errorf("pull bytes %d, want %d = %d - %d packed - %d the owner is not sent", pull, want, topo.pull, packedPull, topo.ownerPull)
			}
			if o.replicas && copies != want {
				t.Errorf("the standbys' copies are %d bytes, want the primaries' %d", copies, want)
			}
		})
	}
}
