// Endpoint state capture for fault tolerance. A parameter-server endpoint
// owns two kinds of mutable cross-step state the paper's correctness
// argument depends on: the optimizer (momentum + schedule step, server
// side, and the owner's for the owner-only tensors it steps) and the
// per-tensor compression contexts (error-accumulation buffers, RNG
// streams; both sides). AppendState/RestoreState serialize
// exactly that — model weights are checkpointed separately (package
// checkpoint), and the recycled wire/scratch buffers carry no semantic
// state. A restored endpoint produces bit-identical wires from the next
// step on.
package ps

import (
	"encoding/binary"
	"fmt"

	"threelc/internal/compress"
	"threelc/internal/kernel"
)

// appendCtxStates serializes a set of per-tensor compression contexts:
// u32 count, then per context a presence byte and (for stateful schemes)
// a length-prefixed state blob.
func appendCtxStates(dst []byte, ctxs []compress.Compressor) []byte {
	le := binary.LittleEndian
	var b4 [4]byte
	le.PutUint32(b4[:], uint32(len(ctxs)))
	dst = append(dst, b4[:]...)
	for _, ctx := range ctxs {
		sf, ok := ctx.(compress.Stateful)
		if !ok {
			dst = append(dst, 0)
			continue
		}
		dst = append(dst, 1)
		lenAt := len(dst)
		dst = append(dst, 0, 0, 0, 0)
		dst = sf.AppendState(dst)
		le.PutUint32(dst[lenAt:], uint32(len(dst)-lenAt-4))
	}
	return dst
}

// restoreCtxStates restores a context set captured by appendCtxStates,
// returning the remaining input. The context count and each per-context
// statefulness must match — both are fixed by (scheme, shape, options),
// so a mismatch means the checkpoint belongs to a different
// configuration.
func restoreCtxStates(src []byte, ctxs []compress.Compressor) ([]byte, error) {
	le := binary.LittleEndian
	if len(src) < 4 {
		return nil, fmt.Errorf("ps: context state truncated")
	}
	if n := int(le.Uint32(src)); n != len(ctxs) {
		return nil, fmt.Errorf("ps: checkpoint has %d contexts, endpoint has %d", n, len(ctxs))
	}
	src = src[4:]
	for i, ctx := range ctxs {
		if len(src) < 1 {
			return nil, fmt.Errorf("ps: context %d state truncated", i)
		}
		has := src[0]
		src = src[1:]
		sf, stateful := ctx.(compress.Stateful)
		switch has {
		case 0:
			if stateful {
				return nil, fmt.Errorf("ps: context %d is stateful but checkpoint has no state for it", i)
			}
		case 1:
			if len(src) < 4 {
				return nil, fmt.Errorf("ps: context %d state length truncated", i)
			}
			n := int(le.Uint32(src))
			src = src[4:]
			if len(src) < n {
				return nil, fmt.Errorf("ps: context %d state truncated (%d of %d bytes)", i, len(src), n)
			}
			if !stateful {
				return nil, fmt.Errorf("ps: context %d is stateless but checkpoint carries state for it", i)
			}
			if err := sf.RestoreState(src[:n]); err != nil {
				return nil, fmt.Errorf("ps: context %d: %w", i, err)
			}
			src = src[n:]
		default:
			return nil, fmt.Errorf("ps: corrupt context presence byte %d", has)
		}
	}
	return src, nil
}

// AppendState serializes the server's mutable training state — the
// optimizer (momentum, schedule step) and every pull-side compression
// context — to dst. The global model weights are NOT included; checkpoint
// them with package checkpoint.
func (s *Job) AppendState(dst []byte) []byte {
	le := binary.LittleEndian
	lenAt := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	dst = s.optimizer.AppendState(dst)
	le.PutUint32(dst[lenAt:], uint32(len(dst)-lenAt-4))
	return appendCtxStates(dst, s.pullCtx)
}

// RestoreState restores state captured by AppendState on a server with
// the same configuration (tensor set, scheme, options). Malformed input
// returns an error and never panics.
func (s *Job) RestoreState(src []byte) error {
	le := binary.LittleEndian
	if len(src) < 4 {
		return fmt.Errorf("ps: server state truncated")
	}
	n := int(le.Uint32(src))
	src = src[4:]
	if len(src) < n {
		return fmt.Errorf("ps: optimizer state truncated (%d of %d bytes)", len(src), n)
	}
	if err := s.optimizer.RestoreState(src[:n]); err != nil {
		return err
	}
	rest, err := restoreCtxStates(src[n:], s.pullCtx)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("ps: %d trailing server state bytes", len(rest))
	}
	return nil
}

// AppendState serializes the worker's push-side compression contexts to
// dst and, on the owner, the optimizer state of the tensors it steps
// itself: per owner-only tensor, in model order, its step count (u64) and
// its velocity (raw float32). The local model replica is checkpointed
// separately.
func (w *Worker) AppendState(dst []byte) []byte {
	dst = appendCtxStates(dst, w.pushCtx)
	for _, o := range w.own {
		if o != nil {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(o.step))
			dst = kernel.AppendRaw(dst, o.v)
		}
	}
	return dst
}

// RestoreState restores state captured by AppendState on a worker with
// the same configuration. A 3LC context's residual lands in G, so the
// maxima a backward recorded there are stale (nn.Param.ForgetMax).
func (w *Worker) RestoreState(src []byte) error {
	for _, p := range w.params {
		p.ForgetMax()
	}
	rest, err := restoreCtxStates(src, w.pushCtx)
	if err != nil {
		return err
	}
	want := 0
	for _, o := range w.own {
		if o != nil {
			want += 8 + 4*len(o.v)
		}
	}
	if len(rest) != want {
		return fmt.Errorf("ps: worker %d state holds %d bytes after its contexts, want %d for the tensors it steps", w.ID, len(rest), want)
	}
	for _, o := range w.own {
		if o != nil {
			o.step, o.staged = int(binary.LittleEndian.Uint64(rest)), false
			kernel.RawGet(o.v, rest[8:8+4*len(o.v)])
			rest = rest[8+4*len(o.v):]
		}
	}
	return nil
}
