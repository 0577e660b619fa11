#!/usr/bin/env bash
# The layer ruler: every per-layer `go test -bench` suite the CI bench job
# gates, in one place, printed to stdout. CI runs it through benchcheck
# with the gates in .github/workflows/ci.yml; a developer refreshes the
# committed baseline with the same lines:
#
#   bash scripts/layerbench.sh | go run ./cmd/benchcheck -out BENCH_local.json
#
# No arguments, no environment variables of its own (GOMAXPROCS,
# THREELC_KERNEL and GOAMD64 mean what they mean to `go test`).
set -euo pipefail
cd "$(dirname "$0")/.."

# Four gates compare two rows whose ratio sits near its floor on a host
# that flips between speed states mid-run (the checksummed vs the plain
# TCP round trip, the clustered steady-state round trip vs the Gaussian
# one, the asm vs the scalar delta SGD sweep, the batched vs the serial
# Linear forward): each pair runs back to back five times from test
# binaries built once, and benchcheck -speedup reads lines that alternate
# as pairs and gates the median of their ratios, not best against best.
bin="$(mktemp -d)"
trap 'rm -rf "$bin"' EXIT
for pkg in ps transport kernel nn; do
	go test -c -o "$bin/$pkg.test" "./internal/$pkg/"
done
# repeat PKG BENCH BENCHTIME: five runs of one binary; a BENCH matching two
# rows prints them in the same order each run, so they alternate.
repeat() {
	for _ in 1 2 3 4 5; do
		(cd "internal/$1" && "$bin/$1.test" -test.run='^$' -test.bench="$2" -test.benchtime="$3" -test.benchmem)
	done
}
# alternate PKG_A BENCH_A PKG_B BENCH_B BENCHTIME
alternate() {
	for _ in 1 2 3 4 5; do
		(cd "internal/$1" && "$bin/$1.test" -test.run='^$' -test.bench="$2" -test.benchtime="$5" -test.benchmem)
		(cd "internal/$3" && "$bin/$3.test" -test.run='^$' -test.bench="$4" -test.benchtime="$5" -test.benchmem)
	done
}

# -benchtime raised from the original 5-20x so ns/op is stable
# enough for the speedup and baseline-tolerance gates.
go test -run='^$' -bench 'CompressInto|DecompressInto' -benchtime 30x -benchmem ./internal/compress/
# The Huffman and LZ coders (no wire uses them) over a 1M-element
# 3LC quartic wire and over the trained run's push wire set:
# encoders report the achieved ratio (raw/coded), floored by the
# gate on the quartic stream, and every row the input's order-0
# and order-1 entropy (h0, h1 bits/byte).
go test -run='^$' -bench EntropyStage -benchtime 50x -benchmem ./internal/entropy/
# The packed float32 wire of exempt tensors, on the batch-norm
# vectors of the same trained run and their first 48 elements:
# ns/elem and ratio (raw bytes over packed) for the owner's pushes
# (pack) and for the pulls (unpack-add), whose ratio the gate
# floors. Nanosecond-scale operations, hence the iteration count.
go test -run='^$' -bench Packed32 -benchtime 200000x -benchmem ./internal/compress/
# ...Tiny is the steady-state round trip over ~200 tensors of at
# most 64 elements, where the per-tensor cost is what is measured,
# and ...F32 the float32 baseline's round trip at the end-to-end
# model's size (two workers, every server pass a raw kernel core).
# WorkerCompressF32 is its worker side alone, both workers'
# CompressGrads: each push wire is a view of the replica's gradient,
# so it copies nothing (inside the zero-allocs gate).
go test -run='^$' -bench 'SteadyStatePushPull(Tiny|F32)$|WorkerCompressF32$' -benchtime 100x -benchmem ./internal/ps/
# WorkerStep3LC is the worker side of a lan-3lc step, both workers'
# TrainStep and CompressGrads: each Linear weight's backward records
# compress pass 1 as it writes G, so the push re-reads no gradient
# (inside the zero-allocs gate). ~30 ms an op, hence 20.
go test -run='^$' -bench 'WorkerStep3LC$' -benchtime 20x -benchmem ./internal/ps/
# The plain SteadyStatePushPull workload, alternated with its twin whose
# pushes cluster in ~1 % of the largest tensor's blocks
# (SteadyStatePushPullClustered: the server's gradient sum stays dead
# outside them, so nothing zero-fills it and the optimizer sweep reads
# only them), which the gate holds to a floor against the dense one.
repeat ps 'SteadyStatePushPull(Clustered)?$' 100x
# The same steady-state round trip over a real loopback TCP
# connection, resilient (CRC-32C checksummed) alternated with plain:
# frame integrity must hold 0 allocs/op at parity with the bare wire
# (gated), so it is cheap enough to leave on everywhere.
# ...WireF32 is the lan-f32 shape through NewServer's session: the
# 1.85M-parameter MLP as raw float32, two workers, every wire of
# 64 KiB or more spliced into its frame instead of copied.
alternate transport 'SteadyStatePushPullWireChecksum$' transport 'SteadyStatePushPullWire$' 100x
go test -run='^$' -bench 'SteadyStatePushPullWireF32$' -benchtime 100x -benchmem ./internal/transport/
# The per-tensor streamed exchange at the tiny-stream shape (258
# tensors, 2 workers, 2 shards): reports writes/op (8 with the
# compressor ahead: a run per worker, shard and direction) and
# framing-gain from counting connections — the frame-per-tensor
# layout's framing (21 bytes a tensor, 17 a push end) over the
# bytes the sockets carry beyond the tensors' wires, about 7.7 with
# a run per flush and 1 with a frame per tensor; the gate floors
# it. Its model has batch-norm tensors, so it also reports
# push-B/step and owner-gain (2 = the worker count: an owner-only
# tensor is pushed once), and on the pull side pull-B/step and
# owner-pull-gain (2 again: the owner is not sent it, ps.Pulls),
# both gains floored by the gate as well.
# Outside the zero-allocs pattern by name: the caller's per-step
# channel is part of the API.
go test -run='^$' -bench 'StreamedPushPullWire' -benchtime 100x -benchmem ./internal/transport/
# Fused kernels under -cpu 1,4: the serial kernels must stay
# zero-alloc at every GOMAXPROCS, and the staged-vs-fused ratios
# (compress, decompress, and decode-accumulate) are gated. DecodeAdd
# is anchored: the kernel tiers' DecodeAddKernel rows are the next
# line's.
go test -run='^$' -bench 'FusedCompress/|FusedDecompress/|StagedCompress/|StagedDecompress/|DecodeAdd$/|DecodeThenAdd/' -benchtime 20x -cpu 1,4 -benchmem ./internal/kernel/
# Kernel dispatch tiers: the same encode / decode-add /
# accumulate / fused-SGD sweep / raw float32 put and add on every
# available tier, gated against the scalar reference
# (assumes an AVX2-capable runner, which every GitHub-hosted x86
# runner is). Encode and decode-add run on a dense input
# (quantize+pack / literal cores decide; both gated) and on a
# 0.998-zero one (encode: the read-only block scan, gated at 3x;
# decode-add: the marker walk every tier shares, reported), the
# encode also on a clustered one (the block index skips 98 % of it;
# gated against the 0.998-zero row), plus
# one cache-cold sparse encode row on the dispatched tier
# (reported). The raw rows and the SGD sweep's delta and raw rows
# (the raw one writing a SchemeNone pull wire's body) are
# cache-cold too, with an accumulate+|max| and a built-in copy
# over the same rotation beside them (reported). Decode-add and
# the SGD sweep also run on a clustered wire into a gradient sum
# with a liveness record (2 % of its blocks live, lan-3lc's push
# share): the first push of a step, clearing only the blocks it
# lands in, and the sweep reading only those (reported).
# The read-only |max| (MaxAbsKernel: pass 1 of a worker's 3LC tensor,
# whose gradient tensor already holds e + g, and of the stochastic and
# int8 codecs) runs cache-cold too, recording block maxima; its asm row
# is gated against the scalar one. The delta SGD sweep's tier rows sit
# on the memory stream, near their 1.1 floor, so they run apart from
# the sweep's other rows, as alternated pairs.
go test -run='^$' -bench 'EncodeTernaryKernel|DecodeAddKernel|AccumulateMaxAbsKernel|MaxAbsKernel|RawAddKernel|RawPutKernel' -benchtime 20x -benchmem ./internal/kernel/
go test -run='^$' -bench 'FusedSGDStepKernel//(1M|raw|clustered)$' -benchtime 20x -benchmem ./internal/kernel/
repeat kernel 'FusedSGDStepKernel//delta$' 20x
# One warm forward and backward pass of the end-to-end model's MLP
# (768 -> 1024 -> 1024 -> 10, batch 4), of tiny-stream's (768 -> 64
# hidden layers of 48 -> 10), where a per-row cost in a 48-wide
# backward shows, and of the default MicroResNet: every nn layer
# returns tensors from its own workspace, so the training step is
# inside the zero-allocs gate.
go test -run='^$' -bench TrainStep -benchtime 20x -benchmem ./internal/nn/
# The forward of that MLP's two large layers at batch 4: Linear.Forward,
# which reads each weight row once for the four samples, alternated
# with the chain-per-sample reference, which streams the weights once
# per sample (same bits, gated at 2x; inside the zero-allocs gate).
repeat nn 'LinearForward/(batch4|serial)$' 100x
# One warm evaluation of 300 rows (the end-to-end benchmark's held-out
# set) on the same two models, walked 32 rows at a time through the
# same workspaces: inside the zero-allocs gate as well. About a second
# an evaluation, hence one.
go test -run='^$' -bench Accuracy -benchtime 1x -benchmem ./internal/nn/
# One snapshot of the end-to-end model: what a periodic
# checkpoint stalls a step boundary by, per replica.
go test -run='^$' -bench CheckpointSave -benchtime 50x -benchmem ./internal/checkpoint/
