// Package ps implements the parameter-server architecture of Figure 1/2:
// a server holding the global model and N workers holding local replicas.
// Each training step, workers push compressed gradients, the server
// decompresses and averages them, updates the global model with the local
// optimizer, and publishes compressed model deltas that every worker pulls
// and applies to its replica.
//
// Faithful details from the paper:
//
//   - One compression context per tensor per direction (§3, Figure 2):
//     each worker owns a push context per layer tensor, the server owns a
//     pull context per layer tensor. Contexts carry the error-accumulation
//     state across steps.
//   - Shared compressed pulls (§3, Figure 2b): the server compresses each
//     model delta once and every worker receives the same bytes — but for
//     the owner-only slots the owner is sent empty (below) — avoiding
//     redundant compression work (workers still each consume egress
//     bandwidth, which netsim accounts).
//   - Small-tensor exemption (§5.1): tensors flagged NoCompress (batch
//     norm) or smaller than MinCompressElems bypass the design's codec and
//     travel as lossless 32-bit floats. Config.Compresses is the one
//     definition of which tensors those are, compress.NewExempt of what
//     they travel as: verbatim under the float32 design and below 16
//     values, repacked as bit planes (the packed float32 wire, stateless,
//     never longer than raw) under every design that compresses.
//   - Batch-norm ownership (§5.2): one designated worker (Owner, worker 0)
//     is responsible for batch-norm parameter updates, so it alone pushes
//     those tensors (Pushes). Every other worker puts the empty wire in
//     their slots, and the aggregator (Job) refuses anything else there
//     and refuses to finish a step whose owner pushed nothing.
//     The update of such a tensor is the owner's gradient as is, so the
//     owner takes the step itself: its Worker keeps the velocity and
//     schedule step of those tensors and pushes the update, on the
//     lossless exempt wire, in place of the gradient. Job does not step
//     them and keeps no optimizer state for them: it adds the update to
//     the global model, as every replica does, and relays the owner's wire
//     as their pull. The owner is not sent its own update back (Pulls):
//     its slots of the pull hold the empty wire (Job.OwnerPull), which
//     means "add the update you pushed". Any other worker is sent them; an
//     empty slot there, or one the owner has pushed no update for, is
//     refused.
//   - BSP barriers: the step driver (package train) runs all pushes before
//     the update and all pulls after it, the synchronous mode the paper
//     evaluates.
//
// The codec hot path is allocation-free in steady state: workers and the
// server recycle per-tensor wire buffers across steps through the
// append-style compress.CompressInto API, and layer tensors are
// compressed/decompressed concurrently by a bounded worker pool
// (Config.Parallelism), the only parallelism in a node's codec work. Per
// tensor, the ternary codecs run on one goroutine, on the fused
// kernels of internal/kernel — two passes over tensor memory to compress,
// the second reading only the blocks whose recorded |max| can quantize to
// a non-zero digit (kernel.Blocks: where digits cluster, as on the
// 1.85M-element layers of lan-3lc and wan-3lc, 1.8 % of a push's blocks
// and 8.4 % of a pull's; a finite scale is needed too) — and, on the
// aggregation side, ONE fused decode-accumulate pass per
// worker payload that streams wire bytes and adds M·q straight into the
// gradient sum (no intermediate decode tensor; payloads are validated
// before the accumulator is touched). The sum is the served parameter's
// own G (nn.Param.G), so the job holds no gradient buffer of its own and
// its model cannot double as a worker's replica. It is not zeroed between
// steps: the stamps of its kernel.Blocks record mark the blocks this
// step's pushes reached (Job.BeginStep resets it in O(1)), the decode-add
// clears a block when the step's first literal group lands in it, and
// every other block reads as +0 (compress.DecompressAddLive) — 3.6 % of the blocks are
// live a step on lan-3lc, 3.2 % on wan-3lc, 97 % on tiny-stream.
//
// Worker-side, a 3LC tensor's push context has the replica's own G as its
// error buffer (compress.NewThreeLCOver, nn.Param.CarryGrad; NewWorker
// zeroes it): G carries the residual e between steps, every layer's
// backward adds its batch gradient into it with one add per element, and
// compress pass 1 shrinks to a read-only |max| that records the block
// maxima (kernel.Blocks.MaxAbs, then compress.PreAccumulator's encode) —
// the mirror of the server's fused pull. Forming e + g thus costs no
// stream of its own, and a worker holds one model-sized buffer per 3LC
// tensor, not two. Wires and residuals are bit-identical to a context
// that owns its buffer fed a zeroed G (TestWorkerGIsErrorBuffer). Per step
// and tensor, the worker's passes are:
//
//	pass                  reads / writes of tensor memory
//	backward              G, one add per element: e + g
//	pass 1 (|max|)        G whole, read only
//	push encode           G's blocks that can quantize; the residual is
//	                      written back where a digit is not zero
//
// Under the float32 design a tensor's push wire is G itself: newParam
// allocates a cache line of headroom in front of G, its last byte takes
// the scheme byte (nn.Param.GFrame, compress.RawWireOver), and the wire is
// that byte followed by G's little-endian bytes, read by the socket write
// as they stand (TestFloat32PushIsG). The worker's push takes no pass and
// no buffer of its own; the wire is valid until the replica's next
// ZeroGrad or backward pass.
//
// Server-side, the step is fused end to end: FinishStep's optimizer sweep
// averages the gradient on the fly, reading only the live blocks of the
// sum, applies the update, and folds the model delta directly into the pull
// compressor's error-accumulation buffer with its |max| reduction, the
// block maxima going into the same record (kernel.Blocks.SGDStep into an
// Acc sink + compress.PreAccumulator), so compress pass 1 never runs as
// its own sweep and the pull's encode, consulting that record, skips as
// the push's does. Under the float32 design the sweep writes the pull
// wire itself: a raw pull context appends its header and the sweep fills
// the body with the delta's bits (compress.RawWriter + a Raw sink), so no
// delta tensor exists and the pull is never re-encoded. Per step and tensor, the server's passes are:
//
//	pass                  reads / writes of tensor memory
//	BeginStep             none (the record's epoch moves)
//	decode-add, per push  the blocks its literal groups land in (cleared
//	                      on the step's first landing); all of the sum for
//	                      a raw or packed wire or a non-finite scale
//	optimizer sweep       w and v whole; the sum's live blocks only; the
//	                      pull's buffer whole (3LC) or the raw pull wire's
//	                      body, written (float32)
//	pull encode           the buffer's blocks that can quantize (3LC);
//	                      none (float32)
//
// An owner-only tensor takes neither the sweep nor the pull encode: its one
// push, the owner's update, is decoded into the sum (which validates it)
// and copied, and FinishStep decode-adds it to the weights and relays it.
//
// The staged decode-then-add / materialized
// delta pipeline is the bit-identical reference the package's tests hold
// this path to (TestFusedAggregateMatchesStaged); no configuration runs it.
//
// In process, pushes can be ingested per tensor (PushSession.Tensor), so
// a driver overlaps aggregation with compression: the server decode-adds
// tensor i the moment its wire exists while tensor i+1 is still
// compressing (see Worker.CompressGradsStream). Per-tensor ingestion in
// worker order is byte-identical to the whole-set AddPush driver. Over a
// network the worker streams the same tensors as runs and the server
// receives a push whole before it hands it to AddPush (internal/transport),
// so a push cut off mid-stream touches no sum. Wire sets returned by
// CompressGrads and FinishStep alias their owner's memory — valid until
// the owner's next step: FinishStep's and a compressing worker's are
// recycled buffers, a float32 worker's are views of its replica's G,
// rewritten by its next ZeroGrad or backward pass.
//
// # Jobs and push sessions
//
//   - Job is one job's complete server-side state (codec contexts, error
//     accumulation, optimizer slice, step counters, pull buffers,
//     checkpoint state). A sharded tier holds one sub-job per shard
//     (shard.SubServers), each behind its own transport.ShardServer.
//   - Push ingestion flows through one choke point: Job.BeginPush(worker)
//     returns a PushSession fed by Set (whole wire set) or Tensor (one
//     streamed tensor) and completed by End. AddPush(w, wires) is
//     BeginPush(w).Set(wires) followed by End() in one call — the
//     three-method surface (BeginStep / AddPush / FinishStep) a transport
//     session drives with each push it has received whole.
//
// The wire, state, and determinism contracts are the same through
// either ingestion surface.
package ps
