// Full-state checkpoint assembly for train.Run. A snapshot captures
// everything the run's bit-identical continuation depends on:
//
//	meta            step counter + configuration fingerprint
//	model/global    global model weights + BN stats (checkpoint v1 body)
//	model/worker/N  every worker replica (weights + its own BN stats)
//	server          optimizer momentum/step + server pull contexts
//	worker/N        worker push contexts (error accumulation, RNG streams)
//	rng             jitter + per-worker data-sampling RNG positions
//	pullhist        stale-synchronous pull history (Staleness > 0 only)
//	missed          pulls retained for absent workers' rejoin replay
//
// Restore validates the configuration fingerprint first: resuming under a
// different worker count, shard count, scheme, step budget, staleness, or
// seed would silently diverge, so it is an error instead.
package train

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"slices"

	"threelc/internal/checkpoint"
	"threelc/internal/compress"
	"threelc/internal/ps"
	"threelc/internal/tensor"
)

const trainStateVersion = 1

var tle = binary.LittleEndian

// ckptWriter runs at most one checkpoint file write in the background.
// write hands the serialized snapshot to a goroutine after joining the
// previous one, so the training loop never blocks on disk while at most
// one snapshot is in flight.
type ckptWriter struct {
	path    string
	pending chan error
}

func (cw *ckptWriter) write(st *checkpoint.State) error {
	if err := cw.wait(); err != nil {
		return err
	}
	cw.pending = make(chan error, 1)
	go func() { cw.pending <- checkpoint.SaveStateFile(cw.path, st) }()
	return nil
}

func (cw *ckptWriter) wait() error {
	if cw.pending == nil {
		return nil
	}
	err := <-cw.pending
	cw.pending = nil
	return err
}

// --- serialization helpers --------------------------------------------------

func readU32(src []byte) (uint32, []byte, error) {
	if len(src) < 4 {
		return 0, nil, fmt.Errorf("train: state blob truncated")
	}
	return tle.Uint32(src), src[4:], nil
}

func readRNG(src []byte, r *tensor.RNG) ([]byte, error) {
	if len(src) < tensor.RNGStateLen {
		return nil, fmt.Errorf("train: RNG state truncated")
	}
	if err := r.RestoreState(src[:tensor.RNGStateLen]); err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	return src[tensor.RNGStateLen:], nil
}

// appendWireSets serializes a list of pull wire sets (deep copies, since
// the snapshot outlives the buffers they came from).
func appendWireSets(dst []byte, sets [][][]byte) []byte {
	dst = tle.AppendUint32(dst, uint32(len(sets)))
	for _, set := range sets {
		dst = tle.AppendUint32(dst, uint32(len(set)))
		for _, w := range set {
			dst = tle.AppendUint32(dst, uint32(len(w)))
			dst = append(dst, w...)
		}
	}
	return dst
}

func readWireSets(src []byte) ([][][]byte, []byte, error) {
	count, src, err := readU32(src)
	if err != nil {
		return nil, nil, err
	}
	// Counts are untrusted until their contents parse: every element is
	// appended after its bytes are validated, so a corrupt count fails
	// with a truncation error instead of forcing a huge allocation.
	sets := make([][][]byte, 0, min(int(count), 1024))
	for i := 0; i < int(count); i++ {
		var tensors uint32
		tensors, src, err = readU32(src)
		if err != nil {
			return nil, nil, err
		}
		set := make([][]byte, 0, min(int(tensors), 1024))
		for t := 0; t < int(tensors); t++ {
			var n uint32
			n, src, err = readU32(src)
			if err != nil {
				return nil, nil, err
			}
			if len(src) < int(n) {
				return nil, nil, fmt.Errorf("train: wire set truncated (%d of %d bytes)", len(src), n)
			}
			var w []byte
			if n > 0 {
				w = append([]byte(nil), src[:n]...)
			}
			set = append(set, w)
			src = src[n:]
		}
		sets = append(sets, set)
	}
	return sets, src, nil
}

// --- capture ----------------------------------------------------------------

// capture assembles a full-state snapshot at the boundary after `step`
// completed steps. Every payload is freshly serialized (copied), so the
// snapshot is immutable once built and safe to write asynchronously.
func (r *run) capture(step int) (*checkpoint.State, error) {
	cfg, global, workers := &r.cfg, r.global, r.workers
	st := checkpoint.NewState()
	st.Add("meta", cfg.stateInfo(step).appendMeta(nil))

	var buf bytes.Buffer
	if err := checkpoint.Save(&buf, global); err != nil {
		return nil, fmt.Errorf("train: checkpoint global model: %w", err)
	}
	st.Add("model/global", append([]byte(nil), buf.Bytes()...))
	for w, wk := range workers {
		buf.Reset()
		if err := checkpoint.Save(&buf, wk.Model); err != nil {
			return nil, fmt.Errorf("train: checkpoint worker %d model: %w", w, err)
		}
		st.Add(fmt.Sprintf("model/worker/%d", w), append([]byte(nil), buf.Bytes()...))
	}

	st.Add("server", r.tier.AppendState(nil))
	for w, wk := range workers {
		st.Add(fmt.Sprintf("worker/%d", w), wk.AppendState(nil))
	}

	rng := r.jitter.AppendState(nil)
	for _, wr := range r.rngs {
		rng = wr.AppendState(rng)
	}
	st.Add("rng", rng)

	if cfg.Staleness > 0 {
		st.Add("pullhist", appendWireSets(nil, r.pullHistory))
	}
	if slices.ContainsFunc(r.missed, func(m [][][]byte) bool { return len(m) > 0 }) {
		blob := tle.AppendUint32(nil, uint32(len(r.missed)))
		for _, m := range r.missed {
			blob = appendWireSets(blob, m)
		}
		st.Add("missed", blob)
	}
	return st, nil
}

// --- restore ----------------------------------------------------------------

func section(st *checkpoint.State, name string) ([]byte, error) {
	sec, ok := st.Section(name)
	if !ok {
		return nil, fmt.Errorf("train: checkpoint has no %q section", name)
	}
	return sec, nil
}

// StateInfo is a full-state checkpoint's configuration fingerprint plus
// the step it was captured at — what a resume must match, and what
// inspection tooling (3lc-ckpt -state) reports.
type StateInfo struct {
	Step           int
	Workers        int
	Shards         int
	Scheme         compress.Scheme
	Steps          int
	Staleness      int
	Seed           uint64
	BackupWorkers  int
	BatchPerWorker int
	// Opts is the codec configuration (sparsity, fraction, interval,
	// parts, zero-run flag, stochastic seed) the run used — any of these
	// change the trajectory, so all are fingerprinted.
	Opts compress.Options
	// ComputeJitterStd and Dropouts likewise alter the step sequence.
	ComputeJitterStd float64
	Dropouts         []Dropout
}

// stateInfo is the fingerprint of a snapshot of this configuration at step.
func (cfg *Config) stateInfo(step int) StateInfo {
	opts := cfg.Design.Opts
	opts.CodecParallelism = 0 // fan-out never changes bytes
	return StateInfo{
		Step:             step,
		Workers:          cfg.Workers,
		Shards:           max(cfg.Shards, 1),
		Scheme:           cfg.Design.Scheme,
		Steps:            cfg.Steps,
		Staleness:        cfg.Staleness,
		Seed:             cfg.Seed,
		BackupWorkers:    cfg.BackupWorkers,
		BatchPerWorker:   cfg.BatchPerWorker,
		Opts:             opts,
		ComputeJitterStd: cfg.ComputeJitterStd,
		Dropouts:         append([]Dropout(nil), cfg.Dropouts...),
	}
}

// appendMeta serializes the fingerprint as the meta section ReadStateInfo
// decodes.
func (info StateInfo) appendMeta(meta []byte) []byte {
	meta = tle.AppendUint32(meta, trainStateVersion)
	meta = tle.AppendUint64(meta, uint64(info.Step))
	meta = tle.AppendUint32(meta, uint32(info.Workers))
	meta = tle.AppendUint32(meta, uint32(info.Shards))
	meta = append(meta, byte(info.Scheme))
	meta = tle.AppendUint32(meta, uint32(info.Steps))
	meta = tle.AppendUint32(meta, uint32(info.Staleness))
	meta = tle.AppendUint64(meta, info.Seed)
	meta = tle.AppendUint32(meta, uint32(info.BackupWorkers))
	meta = tle.AppendUint32(meta, uint32(info.BatchPerWorker))
	meta = tle.AppendUint64(meta, math.Float64bits(info.Opts.Sparsity))
	meta = tle.AppendUint64(meta, math.Float64bits(info.Opts.Fraction))
	meta = tle.AppendUint32(meta, uint32(info.Opts.Interval))
	meta = tle.AppendUint32(meta, uint32(info.Opts.Parts))
	if info.Opts.ZeroRun {
		meta = append(meta, 1)
	} else {
		meta = append(meta, 0)
	}
	meta = tle.AppendUint64(meta, info.Opts.Seed)
	meta = tle.AppendUint64(meta, math.Float64bits(info.ComputeJitterStd))
	meta = tle.AppendUint32(meta, uint32(len(info.Dropouts)))
	for _, d := range info.Dropouts {
		meta = tle.AppendUint32(meta, uint32(d.Worker))
		meta = tle.AppendUint32(meta, uint32(d.From))
		meta = tle.AppendUint32(meta, uint32(d.To))
	}
	return meta
}

// ReadStateInfo decodes the meta section of a full-state checkpoint.
func ReadStateInfo(st *checkpoint.State) (StateInfo, error) {
	meta, err := section(st, "meta")
	if err != nil {
		return StateInfo{}, err
	}
	const metaFixed = 4 + 8 + 4 + 4 + 1 + 4 + 4 + 8 + 4 + 4 + 8 + 8 + 4 + 4 + 1 + 8 + 8 + 4
	if len(meta) < metaFixed {
		return StateInfo{}, fmt.Errorf("train: meta section is %d bytes, want >= %d", len(meta), metaFixed)
	}
	if v := tle.Uint32(meta); v != trainStateVersion {
		return StateInfo{}, fmt.Errorf("train: unsupported train-state version %d (have %d)", v, trainStateVersion)
	}
	info := StateInfo{
		Step:           int(tle.Uint64(meta[4:])),
		Workers:        int(tle.Uint32(meta[12:])),
		Shards:         int(tle.Uint32(meta[16:])),
		Scheme:         compress.Scheme(meta[20]),
		Steps:          int(tle.Uint32(meta[21:])),
		Staleness:      int(tle.Uint32(meta[25:])),
		Seed:           tle.Uint64(meta[29:]),
		BackupWorkers:  int(tle.Uint32(meta[37:])),
		BatchPerWorker: int(tle.Uint32(meta[41:])),
		Opts: compress.Options{
			Sparsity: math.Float64frombits(tle.Uint64(meta[45:])),
			Fraction: math.Float64frombits(tle.Uint64(meta[53:])),
			Interval: int(tle.Uint32(meta[61:])),
			Parts:    int(tle.Uint32(meta[65:])),
			ZeroRun:  meta[69] == 1,
			Seed:     tle.Uint64(meta[70:]),
		},
		ComputeJitterStd: math.Float64frombits(tle.Uint64(meta[78:])),
	}
	nDrop := int(tle.Uint32(meta[86:]))
	if len(meta) != metaFixed+12*nDrop {
		return StateInfo{}, fmt.Errorf("train: meta section is %d bytes, want %d for %d dropouts", len(meta), metaFixed+12*nDrop, nDrop)
	}
	for i := 0; i < nDrop; i++ {
		off := metaFixed + 12*i
		info.Dropouts = append(info.Dropouts, Dropout{
			Worker: int(tle.Uint32(meta[off:])),
			From:   int(tle.Uint32(meta[off+4:])),
			To:     int(tle.Uint32(meta[off+8:])),
		})
	}
	return info, nil
}

// restore rebuilds the run's full mutable state from a snapshot and
// returns the step to continue from. The configuration fingerprint must
// match the snapshot's; anything else is an error, never a silent
// divergence.
func (r *run) restore(st *checkpoint.State) (int, error) {
	cfg, global, workers, missed := &r.cfg, r.global, r.workers, r.missed
	info, err := ReadStateInfo(st)
	if err != nil {
		return 0, err
	}
	step := info.Step
	// Every fingerprinted knob changes the trajectory.
	if want := cfg.stateInfo(step); !reflect.DeepEqual(info, want) {
		return 0, fmt.Errorf("train: checkpoint configuration %+v does not match the run's %+v", info, want)
	}
	if step <= 0 || step > cfg.Steps {
		return 0, fmt.Errorf("train: checkpoint step %d outside (0, %d]", step, cfg.Steps)
	}

	sec, err := section(st, "model/global")
	if err != nil {
		return 0, err
	}
	if err := checkpoint.Load(bytes.NewReader(sec), global); err != nil {
		return 0, fmt.Errorf("train: restore global model: %w", err)
	}
	for w, wk := range workers {
		if sec, err = section(st, fmt.Sprintf("model/worker/%d", w)); err != nil {
			return 0, err
		}
		if err := checkpoint.Load(bytes.NewReader(sec), wk.Model); err != nil {
			return 0, fmt.Errorf("train: restore worker %d model: %w", w, err)
		}
	}

	if sec, err = section(st, "server"); err != nil {
		return 0, err
	}
	if err := r.tier.RestoreState(sec); err != nil {
		return 0, err
	}
	for w, wk := range workers {
		if sec, err = section(st, fmt.Sprintf("worker/%d", w)); err != nil {
			return 0, err
		}
		if err := wk.RestoreState(sec); err != nil {
			return 0, fmt.Errorf("train: restore worker %d contexts: %w", w, err)
		}
	}
	// The owner's copy of the server's state for the tensors it is not sent
	// (ps.Pulls) is no section of its own: it is the global weights, the
	// tier's velocity and the step count just restored.
	var m ps.Momentum
	if in, ok := r.tier.(*inOrder); ok {
		m, _ = in.Tier.(ps.Momentum)
	}
	if m == nil {
		return 0, fmt.Errorf("train: the tier reports no optimizer velocity to resume worker %d's step for the tensors it owns from", ps.Owner)
	}
	if err := workers[ps.Owner].Resume(global.Params(), m, step); err != nil {
		return 0, err
	}

	if sec, err = section(st, "rng"); err != nil {
		return 0, err
	}
	if sec, err = readRNG(sec, r.jitter); err != nil {
		return 0, err
	}
	for _, wr := range r.rngs {
		if sec, err = readRNG(sec, wr); err != nil {
			return 0, err
		}
	}
	if len(sec) != 0 {
		return 0, fmt.Errorf("train: %d trailing RNG state bytes", len(sec))
	}

	if cfg.Staleness > 0 {
		if sec, err = section(st, "pullhist"); err != nil {
			return 0, err
		}
		hist, rest, err := readWireSets(sec)
		if err != nil {
			return 0, err
		}
		if len(rest) != 0 {
			return 0, fmt.Errorf("train: %d trailing pull-history bytes", len(rest))
		}
		r.pullHistory = hist
	}

	if sec, ok := st.Section("missed"); ok {
		count, rest, err := readU32(sec)
		if err != nil {
			return 0, err
		}
		if int(count) != len(missed) {
			return 0, fmt.Errorf("train: missed-pull section has %d workers, run has %d", count, len(missed))
		}
		for w := range missed {
			var sets [][][]byte
			sets, rest, err = readWireSets(rest)
			if err != nil {
				return 0, err
			}
			if len(sets) > 0 {
				missed[w] = sets
			}
		}
		if len(rest) != 0 {
			return 0, fmt.Errorf("train: %d trailing missed-pull bytes", len(rest))
		}
	}
	return step, nil
}
