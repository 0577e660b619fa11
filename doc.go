// Package threelc is a from-scratch Go reproduction of "3LC: Lightweight
// and Effective Traffic Compression for Distributed Machine Learning"
// (Lim, Andersen, Kaminsky — MLSys 2019).
//
// The hot path — per-tensor compression of gradient pushes and model-delta
// pulls, every training step — is built as a zero-allocation, fused
// single-pass pipeline. Compression contexts expose an append-style
// CompressInto(in, dst) API and recycle all scratch state across steps;
// decoding dispatches through a codec registry of add-decoders into
// caller-owned tensors — a receiver only ever adds a decoded state change,
// and a decode into a fresh tensor is the first add.
// The per-element work of §3.1–§3.3 runs on internal/kernel's fused
// kernels rather than as staged sweeps:
//
//	stage                     staged sweeps    fused passes
//	compress (3LC)                 7                2
//	  accumulate + max|T|          2           1  (AccumulateMaxAbs; on a
//	                                              worker Blocks.MaxAbs,
//	                                              read-only: backward
//	                                              adds g into e)
//	  quantize → dequantize →
//	  residual → quartic → ZRE     5           1  (EncodeTernary)
//	decode + accumulate            2                1
//	  (aggregation: ZRE expand +
//	  unpack + sum += M·q)         2           1  (DecodeTernaryAdd, LUT)
//
// Aggregation — the server summing every worker's push — runs on the
// fused decode-accumulate kernels: one LUT-driven pass per payload
// streams wire bytes and adds M·q directly into the gradient sum, with
// no intermediate decode tensor (DecodeTernaryAdd). Payloads are
// validated by a wire-byte pre-scan before the first element is touched,
// so a malformed push can never corrupt live aggregation state. The
// gradient sum is never zeroed: the stamps of a per-block record
// (kernel.Blocks, reset in O(1) each step) mark the blocks a push reached,
// a block is cleared when the step's first literal group lands in it, and
// the rest read as +0. On the server the whole step is fused end to end:
// one sweep per tensor (kernel.Blocks.SGDStep) reads the gradient of the
// live blocks only and writes the model delta straight into the pull
// compressor's error-accumulation buffer (compress.PreAccumulator), reducing
// max|acc| and recording the block maxima in the same record, so average →
// update → delta → compress pass 1 collapse into one pass per tensor.
//
// The push/aggregate pipeline is overlapped at tensor granularity across
// every layer:
//
//	worker:   compress tensor i+1 ──┐ (CompressGradsStream)
//	wire:     tensor i in flight ───┤ (a run of tensors a flush)
//	server:   decode-add tensor i-1 ┘ (in process: PushSession.Tensor)
//
// There is one BSP step driver, train.Run, written against one seam,
// ps.Tier (BeginStep / BeginPush / FinishStep + the checkpoint pair), which
// ps.Job and transport.DialedTier implement; cmd/3lc-net is flags →
// listeners → train.Run with a Tier hook that dials them. Each accepted worker feeds its tensors to its push session the
// moment they are compressed. In front of an in-process tier a
// worker-order gate ingests them during the other workers' compute, in
// strict worker order per tensor, so the sums — and all results — are
// byte-identical to the serial driver. Over TCP the session engine orders
// by seat, and every push and pull is a stream of runs
// (ShardClient.PushPullStream): both ends write when 64 KiB have gathered
// and when the stream ends, never on timing; a flush is one run — one
// shard header, then per tensor a slot delta and a length as uvarints,
// and its wire — so a push pays one write and one header per shard and
// 64 KiB, not one per tensor, however its compressor is paced. A receiver
// takes a stream whole before it applies any of it, so an exchange that
// fails or is cut off applies nothing and a resilient client can replay
// its push. The staged decode-then-add aggregation is the bit-identical
// oracle internal/ps's tests hold this path to.
//
// The ternary wire has one zero-run spelling (see internal/encode): bytes
// 243–254 stand for 2–13 all-zero quartic groups as in §3.3, and 255 is
// followed by a uvarint e and stands for 14·(1+e), so a zero stretch of
// any length is one token where the paper's code, capped at 14 groups a
// byte, chains 0xFF — 61 % of the wire at the 0.998 zero fraction the
// end-to-end benchmark runs at. encode.ZeroRunPaperLen keeps the paper's
// byte count derivable; wires in the capped spelling are refused by their
// flags byte.
//
// Decode is driven by a 243-entry lookup table (quartic byte → 5 ternary
// digits) expanded per wire scale M into byte → 5 scaled float32 values;
// the per-M expansion costs 243·5 multiplies, so tensors below ~4k
// elements decode through the int8 table with an inline multiply instead,
// and the expanded tables are recycled with the last M cached. Pass 1 records
// each 1 280-element block's max|buf| (kernel.Blocks) and pass 2 skips
// every block whose max is under the quantizer threshold, so where
// non-zero digits cluster — a large layer's gradients and deltas — the
// encode reads only the few blocks that can quantize. Every kernel runs on
// the calling goroutine, and so does a node's codec work: package ps
// compresses, aggregates and applies its tensors one after another, never
// on a pool and never a tensor split across cores. The staged
// primitives in internal/quant and internal/encode remain the
// bit-identical reference, pinned by differential tests and
// FuzzFusedVsStaged. In steady state a full push/pull codec round trip
// performs zero heap allocations at any GOMAXPROCS
// (ps.TestExchangeAllocatesNothingAtAnyGOMAXPROCS runs it at 4; the
// -benchmem benchmarks in internal/compress, internal/kernel, and
// internal/ps run at the host's).
//
// The implementation lives under internal/:
//
//	internal/kernel      fused single-pass hot-path kernels: two-pass
//	                     compress (AccumulateMaxAbs + EncodeTernary),
//	                     one-pass decode-accumulate (DecodeTernaryAdd,
//	                     into a sum a Blocks record may track), pass
//	                     counting
//	internal/quant       3-value quantization with sparsity multiplication,
//	                     error accumulation, and the quantization baselines
//	                     (staged reference for the fused kernels)
//	internal/encode      quartic + zero-run encoding on caller buffers
//	                     (staged reference; owns the run-token grammar)
//	internal/sparse      top-k sparsification baselines
//	internal/compress    the Compressor interface, append-style wire
//	                     builders, and the decoder registry
//	internal/nn          the neural-network training substrate
//	internal/data        synthetic CIFAR-like datasets
//	internal/opt         momentum SGD + cosine decay + warmup
//	internal/netsim      bandwidth-emulating virtual cluster
//	internal/ps          parameter-server runtime (push/pull, shared pulls,
//	                     recycled wire buffers, codec work on the calling
//	                     goroutine, param-subset sub-servers for sharding)
//	internal/shard       sharded parameter-server tier: deterministic
//	                     tensor→shard placement (size-balanced bin
//	                     packing) and the shard servers' sub-jobs
//	internal/transport   framed TCP transport (coalesced single-write
//	                     frames, per-connection read scratch): one frame
//	                     codec for the versioned shard-aware wire
//	                     (plain, or resilient with a CRC-32C trailer) and
//	                     one BSP session engine behind every server
//	internal/train       the one BSP step driver (any ps.Tier, in-process
//	                     or dialed) + metrics: virtual time from netsim,
//	                     wall time from the clock
//	internal/experiments per-table/figure reproduction harness
//	internal/lint        3lc-lint analyzer suite enforcing the //3lc:
//	                     source contracts (noalloc, nopanic, poolsafe,
//	                     detonly); see internal/lint/doc.go
//
// The sharded tier partitions the model's tensors across N parameter-server
// shards, as the paper's separate server nodes. Placement is deterministic
// (shard.ForModel: size-balanced LPT packing) and shard.SubServers builds
// each shard's ps sub-job, which a transport.ShardServer serves on its own
// listener; workers hold one ShardClient connection to every shard, and a
// transport.DialedTier over the clients puts train.Run on them (3lc-net
// -shards N). The shards' model state stays byte-identical to the single
// server's for every codec.
//
// Fault tolerance. The per-endpoint error-accumulation state that makes
// 3LC correct (unsent changes are retried at later steps) is exactly what
// makes it recoverable, and the system checkpoints that state. internal/checkpoint's v2 format is a versioned,
// length-prefixed, CRC-checked section container capturing FULL training
// state — every model replica, opt.SGD momentum and schedule step, every
// codec's error-accumulation buffer and RNG stream (compress.Stateful),
// and the step counter — and train.Run writes it periodically off the hot
// path (serialize at the step boundary, write in the background;
// CheckpointPath/CheckpointEvery) with atomic temp-file + fsync + rename
// saves that keep the prior snapshot at .bak. A run resumed from a
// checkpoint (ResumeFrom, or `3lc-train -resume`) reproduces the
// uninterrupted run's loss trajectory bit-identically for every codec.
// On the wire, every endpoint takes read/write deadlines
// (transport.Timeouts) so a dead peer surfaces as a net.Error timeout
// instead of a hang, and a resilient client that loses its connection to
// a live shard redials and replays the in-flight push, deduplicated on the
// (worker, step) identity every push frame carries. A lost process is
// resumed from its last checkpoint; there is no standby tier.
//
// Binaries: cmd/3lc-bench (regenerate every table and figure; the
// per-layer benchmarks are `bash scripts/layerbench.sh`), cmd/3lc-train (single training run, with
// `-state` full-state checkpointing and `-resume`), cmd/3lc-net (the same
// driver over real TCP: sharded, streamed, chaos soak),
// cmd/3lc-compress (codec demo), cmd/3lc-ckpt (checkpoint inspection and
// evaluation), cmd/benchcheck (CI benchmark parser/gate),
// and cmd/3lc-lint (the //3lc: contract checker; run it as
// `go run ./cmd/3lc-lint ./...`). Runnable examples are under
// examples/. See README.md for a quickstart.
package threelc
