// Package region implements hierarchical two-level aggregation for
// WAN-aware training: workers are grouped into regions (racks, sites,
// datacenters), each region's aggregator ingests its local workers'
// pushes over the fast local network, and only one stream per region
// crosses the slow inter-region link to the global shard tier.
//
// Two forwarding modes cover the fidelity/byte trade-off:
//
//   - Exact (default): the aggregator bundles its workers' wire messages
//     and forwards them verbatim, in worker order. The global tier
//     ingests exactly the byte stream a flat topology would have
//     produced, so model state is bit-identical to flat training for
//     every codec — the hierarchy changes only where bytes travel.
//
//   - Recompress: the aggregator fuses local pushes into a per-region
//     gradient sum with the fused decode-accumulate kernels
//     (compress.DecompressAddInto over kernel.DecodeTernaryAddParallel
//     for ternary wires), then re-encodes ONE residual stream per tensor
//     with a region-owned error-accumulating compression context. The
//     slow link carries one coded set per region — W/R times fewer
//     streams — at the cost of a second quantization; the region's
//     error-accumulation buffer retries what the re-quantization drops,
//     exactly the paper's §3.1 argument applied at the aggregator.
//
// A Tier is a ps.Tier over a ps.Tier: train.Run drives it like any other
// (Config.Regions interposes one in front of the run's server), and the
// inner tier it forwards to may be in-process or dialed — 3lc-net's
// regional aggregators forward over a one-seat transport.DialedTier.
package region

import (
	"encoding/binary"
	"fmt"
	"time"

	"threelc/internal/compress"
	"threelc/internal/nn"
	"threelc/internal/ps"
	"threelc/internal/tensor"
)

// Config shapes a region tier.
type Config struct {
	// Regions is the number of regional aggregators. Workers are assigned
	// contiguously (RegionOf), so every region is non-empty when
	// Workers >= Regions.
	Regions int
	// Workers is the global worker count.
	Workers int
	// Recompress selects the fused re-encode mode; false forwards worker
	// wires verbatim (bit-identical to flat training).
	Recompress bool
	// Scheme and Opts configure the recompress contexts, normally the
	// run's own design (the region re-quantizes with the same codec).
	// MinCompressElems carries the small-tensor exemption
	// (ps.Config.Compresses): an exempt tensor is forwarded as raw floats
	// instead of re-quantized. Ignored in exact mode.
	Scheme           compress.Scheme
	Opts             compress.Options
	MinCompressElems int
	// Parallelism bounds the fused decode-accumulate fan-out per tensor.
	// Zero means work-proportional; 1 forces serial kernels (the
	// allocation-free configuration).
	Parallelism int
}

// RegionOf maps a worker to its region: contiguous balanced blocks, so
// worker 0 (the chief, batch-norm owner) is always in region 0.
func RegionOf(worker, workers, regions int) int {
	return worker * regions / workers
}

// Tier is a two-level aggregation topology over an inner global tier.
// Like the servers it wraps, a Tier is driven by a single-threaded step
// loop: BeginStep, one push session per worker (sessions ingest
// concurrently-produced tensors but are themselves opened and completed
// in worker order), then FinishStep.
type Tier struct {
	inner ps.Tier
	cfg   Config

	params []*nn.Param

	sessions []session

	// Exact mode: per region, the framed bytes of the worker wires it has
	// forwarded this step.
	bundled []int

	// Recompress mode.
	sums    [][]*tensor.Tensor      // [region][tensor] fused gradient sums
	dirty   [][]bool                // sums[r][i] (ncWire[i], owner-only) holds this step's data
	ctx     [][]compress.Compressor // [region][tensor] re-encode contexts
	setBufs [][][]byte              // [region][tensor] recycled wire buffers
	ncWire  [][]byte                // the owner's wires of owner-only tensors, copied
	fuseDur time.Duration           // decode-accumulate time inside sessions

	wanPush []int // per region, last completed step
	wanPull []int
}

// NewTier wraps inner with a region tier. params describes the model's
// tensor set (shapes and compression exemptions) — typically
// model.Params() of the global replica; the tier allocates its own
// aggregation buffers and never writes through params.
func NewTier(inner ps.Tier, params []*nn.Param, cfg Config) (*Tier, error) {
	if cfg.Regions < 1 {
		return nil, fmt.Errorf("region: Regions %d must be >= 1", cfg.Regions)
	}
	if cfg.Workers < cfg.Regions {
		return nil, fmt.Errorf("region: %d workers cannot populate %d regions", cfg.Workers, cfg.Regions)
	}
	t := &Tier{
		inner:    inner,
		cfg:      cfg,
		params:   params,
		sessions: make([]session, cfg.Workers),
		wanPush:  make([]int, cfg.Regions),
		wanPull:  make([]int, cfg.Regions),
	}
	for w := range t.sessions {
		t.sessions[w] = session{t: t, worker: w, region: RegionOf(w, cfg.Workers, cfg.Regions)}
	}
	if !cfg.Recompress {
		t.bundled = make([]int, cfg.Regions)
		return t, nil
	}

	exempt := ps.Config{Scheme: cfg.Scheme, MinCompressElems: cfg.MinCompressElems}
	t.sums = make([][]*tensor.Tensor, cfg.Regions)
	t.dirty = make([][]bool, cfg.Regions)
	t.ctx = make([][]compress.Compressor, cfg.Regions)
	t.setBufs = make([][][]byte, cfg.Regions)
	t.ncWire = make([][]byte, len(params))
	for r := 0; r < cfg.Regions; r++ {
		t.sums[r] = make([]*tensor.Tensor, len(params))
		t.dirty[r] = make([]bool, len(params))
		t.ctx[r] = make([]compress.Compressor, len(params))
		t.setBufs[r] = make([][]byte, len(params))
		for i, p := range params {
			t.sums[r][i] = tensor.New(p.W.Shape()...)
			if ps.OwnerOnly(p) {
				continue // forwarded verbatim from its owner, never fused
			}
			if exempt.Compresses(p) {
				o := cfg.Opts
				o.Seed ^= 0x524547 ^ uint64(r)<<40 ^ uint64(i)<<16
				o.CodecParallelism = cfg.Parallelism
				t.ctx[r][i] = compress.New(cfg.Scheme, p.W.Shape(), o)
			} else {
				t.ctx[r][i] = compress.NewExempt(cfg.Scheme, p.W.Shape())
			}
		}
	}
	return t, nil
}

var _ ps.Tier = (*Tier)(nil)

// BeginStep starts a step on the inner tier and resets per-step region
// state.
func (t *Tier) BeginStep() {
	t.inner.BeginStep()
	t.fuseDur = 0
	if t.cfg.Recompress {
		for r := range t.dirty {
			for i := range t.dirty[r] {
				t.dirty[r][i] = false
			}
		}
		return
	}
	for r := range t.bundled {
		t.bundled[r] = 0
	}
}

// BeginPush opens worker workerID's push session. Sessions are recycled
// per worker; open and complete them in worker order.
func (t *Tier) BeginPush(workerID int) ps.PushSession {
	s := &t.sessions[workerID]
	if !t.cfg.Recompress {
		s.fwd = t.inner.BeginPush(workerID)
	}
	return s
}

// AddPush ingests one worker's complete wire-set push — BeginPush, Set,
// End in a single call. It adapts the tier to drivers that speak
// ps.Job's AddPush surface (notably transport.Server's step loop, so a
// region aggregator can sit behind a real TCP front door). The returned
// duration is this push's share of the region's fused decode-accumulate
// time.
func (t *Tier) AddPush(workerID int, wires [][]byte) (time.Duration, error) {
	if workerID < 0 || workerID >= t.cfg.Workers {
		return 0, fmt.Errorf("region: push worker id %d out of range (%d workers)", workerID, t.cfg.Workers)
	}
	before := t.fuseDur
	s := t.BeginPush(workerID)
	if err := s.Set(wires); err != nil {
		return 0, err
	}
	if err := s.End(); err != nil {
		return 0, err
	}
	return t.fuseDur - before, nil
}

// session ingests one worker's push into its region.
type session struct {
	t      *Tier
	worker int
	region int
	fwd    ps.PushSession // exact mode: inner pass-through
}

func (s *session) Set(wires [][]byte) error {
	if len(wires) != len(s.t.params) {
		return fmt.Errorf("region: push has %d tensors, model has %d", len(wires), len(s.t.params))
	}
	for i, w := range wires {
		if err := s.Tensor(i, w); err != nil {
			return err
		}
	}
	return nil
}

func (s *session) Tensor(i int, wire []byte) error {
	t := s.t
	if i < 0 || i >= len(t.params) {
		return fmt.Errorf("region: push tensor index %d out of range (model has %d tensors)", i, len(t.params))
	}
	if !t.cfg.Recompress {
		// Exact mode: forward verbatim, and count the wire as it crosses
		// the slow link in the region's bundle, framed (see framedSetLen).
		t.bundled[s.region] += 4 + len(wire)
		return s.fwd.Tensor(i, wire)
	}
	p := t.params[i]
	if !ps.Pushes(s.worker, p) {
		return ps.RefuseUnpushed(s.worker, p, wire)
	}
	if ps.OwnerOnly(p) {
		// Batch-norm statistics have a single designated owner; the
		// region relays its wire untouched instead of fusing.
		t.ncWire[i] = append(t.ncWire[i][:0], wire...)
		t.dirty[s.region][i] = true
		return nil
	}
	start := time.Now()
	var err error
	if !t.dirty[s.region][i] {
		t.dirty[s.region][i] = true
		err = compress.DecompressFirstAddInto(wire, t.sums[s.region][i], t.cfg.Parallelism)
	} else {
		err = compress.DecompressAddInto(wire, t.sums[s.region][i], t.cfg.Parallelism)
	}
	t.fuseDur += time.Since(start)
	if err != nil {
		return fmt.Errorf("region %d: push tensor %q: %w", s.region, p.Name, err)
	}
	return nil
}

func (s *session) End() error {
	if s.fwd != nil {
		err := s.fwd.End()
		s.fwd = nil
		return err
	}
	return nil
}

// FinishStep forwards each region's stream to the global tier (recompress
// mode; exact mode already forwarded inside the sessions), completes the
// inner step, and accounts the bytes each region moved across the
// inter-region link. The returned codec duration includes the regions'
// fuse and re-encode time on top of the inner tier's.
func (t *Tier) FinishStep() ([][]byte, time.Duration, error) {
	regionDur := t.fuseDur
	if t.cfg.Recompress {
		// Scale so the inner tier's division by its push count (one per
		// region) lands on the flat global mean: each region forwards
		// (R/W)·Σ_{w∈r} g_w, and (1/R)·Σ_r of that is (1/W)·Σ_w g_w.
		scale := float32(t.cfg.Regions) / float32(t.cfg.Workers)
		start := time.Now()
		for r := 0; r < t.cfg.Regions; r++ {
			set := t.setBufs[r]
			for i, p := range t.params {
				// A region is the inner tier's worker r: it forwards what
				// worker r would push, the empty wire otherwise.
				switch {
				case !ps.Pushes(r, p):
					set[i] = nil
				case !t.dirty[r][i]:
					return nil, 0, fmt.Errorf("region %d: %w", r, ps.NoPush(p))
				case ps.OwnerOnly(p):
					set[i] = t.ncWire[i]
				default:
					t.sums[r][i].Scale(scale)
					set[i] = t.ctx[r][i].CompressInto(t.sums[r][i], set[i][:0])
				}
			}
		}
		regionDur += time.Since(start)
		for r := 0; r < t.cfg.Regions; r++ {
			sess := t.inner.BeginPush(r)
			if err := sess.Set(t.setBufs[r]); err != nil {
				return nil, 0, err
			}
			if err := sess.End(); err != nil {
				return nil, 0, err
			}
			t.wanPush[r] = framedSetLen(t.setBufs[r])
		}
	} else {
		copy(t.wanPush, t.bundled)
	}

	pulls, innerDur, err := t.inner.FinishStep()
	if err != nil {
		return nil, 0, err
	}
	// The shared pull crosses every region's slow link once; regions fan
	// it out locally.
	pullBytes := framedSetLen(pulls)
	for r := range t.wanPull {
		t.wanPull[r] = pullBytes
	}
	return pulls, innerDur + regionDur, nil
}

// WANBytes reports the bytes each region moved across the inter-region
// link in the last completed step: per-region forwarded push bytes and
// per-region pull bytes. The slices are recycled; copy to retain.
func (t *Tier) WANBytes() (push, pull []int) {
	return t.wanPush, t.wanPull
}

// AppendState serializes the tier's mutable state: the inner tier's blob
// (length-prefixed) plus, in recompress mode, every region re-encode
// context's error-accumulation state.
func (t *Tier) AppendState(dst []byte) []byte {
	le := binary.LittleEndian
	lenAt := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	dst = t.inner.AppendState(dst)
	le.PutUint32(dst[lenAt:], uint32(len(dst)-lenAt-4))
	if !t.cfg.Recompress {
		return dst
	}
	for r := range t.ctx {
		for _, c := range t.ctx[r] {
			sf, ok := c.(compress.Stateful)
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
	}
	return dst
}

// Velocity is the inner tier's velocity of p (ps.Momentum): the regions
// keep no optimizer. It is nil when the inner tier keeps none in process.
func (t *Tier) Velocity(p *nn.Param) []float32 {
	if m, ok := t.inner.(ps.Momentum); ok {
		return m.Velocity(p)
	}
	return nil
}

// RestoreState restores state captured by AppendState on an identically
// configured tier. Malformed input errors and never panics.
func (t *Tier) RestoreState(src []byte) error {
	le := binary.LittleEndian
	if len(src) < 4 {
		return fmt.Errorf("region: tier state truncated")
	}
	n := int(le.Uint32(src))
	src = src[4:]
	if len(src) < n {
		return fmt.Errorf("region: inner state truncated (%d of %d bytes)", len(src), n)
	}
	if err := t.inner.RestoreState(src[:n]); err != nil {
		return err
	}
	src = src[n:]
	if !t.cfg.Recompress {
		if len(src) != 0 {
			return fmt.Errorf("region: %d trailing tier state bytes", len(src))
		}
		return nil
	}
	for r := range t.ctx {
		for i, c := range t.ctx[r] {
			if len(src) < 1 {
				return fmt.Errorf("region: context %d/%d state truncated", r, i)
			}
			has := src[0]
			src = src[1:]
			sf, stateful := c.(compress.Stateful)
			switch has {
			case 0:
				if stateful {
					return fmt.Errorf("region: context %d/%d is stateful but checkpoint has no state for it", r, i)
				}
			case 1:
				if len(src) < 4 {
					return fmt.Errorf("region: context %d/%d state length truncated", r, i)
				}
				n := int(le.Uint32(src))
				src = src[4:]
				if len(src) < n || !stateful {
					return fmt.Errorf("region: context %d/%d state mismatch", r, i)
				}
				if err := sf.RestoreState(src[:n]); err != nil {
					return fmt.Errorf("region: context %d/%d: %w", r, i, err)
				}
				src = src[n:]
			default:
				return fmt.Errorf("region: corrupt context presence byte %d", has)
			}
		}
	}
	if len(src) != 0 {
		return fmt.Errorf("region: %d trailing tier state bytes", len(src))
	}
	return nil
}

// framedSetLen is the size of a wire set on the inter-region link: per
// wire [4B LE len][wire], the transport's wire-set element layout.
func framedSetLen(wires [][]byte) int { return ps.WireBytes(wires) + 4*len(wires) }
