// Full-state checkpoint assembly for train.Run. A snapshot captures
// everything the run's bit-identical continuation depends on:
//
//	meta            step counter + configuration fingerprint
//	model/global    global model weights + BN stats (checkpoint v1 body)
//	model/worker/N  every worker replica (weights + its own BN stats)
//	server          optimizer momentum/step + server pull contexts
//	worker/N        worker push contexts (error accumulation, RNG streams);
//	                on the owner, the velocity and step of the tensors it
//	                steps itself (ps.OwnerOnly)
//	rng             per-worker data-sampling RNG positions
//
// Restore validates the configuration fingerprint first: resuming under a
// different worker count, shard count, scheme, step budget, batch, codec
// options or seed would silently diverge, so it is an error instead.
package train

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"

	"threelc/internal/checkpoint"
	"threelc/internal/compress"
	"threelc/internal/ps"
	"threelc/internal/tensor"
)

// trainStateVersion 1 and 2 are retired, and ReadStateInfo refuses them by
// name: version 1's meta fingerprinted four knobs Run no longer has, and
// its rng section led with a stream nothing draws from; version 2 kept the
// batch-norm tensors' velocity in the server section, where the owner,
// which steps them now, does not look for it.
const trainStateVersion = 3

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

func readRNG(src []byte, r *tensor.RNG) ([]byte, error) {
	if len(src) < tensor.RNGStateLen {
		return nil, fmt.Errorf("train: RNG state truncated")
	}
	if err := r.RestoreState(src[:tensor.RNGStateLen]); err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	return src[tensor.RNGStateLen:], nil
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

	var rng []byte
	for _, wr := range r.rngs {
		rng = wr.AppendState(rng)
	}
	st.Add("rng", rng)
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
	Scheme         compress.Scheme
	Steps          int
	Seed           uint64
	BatchPerWorker int
	// Opts is the codec configuration (sparsity, fraction, interval,
	// zero-run flag, stochastic seed) the run used — any of these
	// change the trajectory, so all are fingerprinted.
	Opts compress.Options
}

// stateInfo is the fingerprint of a snapshot of this configuration at step.
func (cfg *Config) stateInfo(step int) StateInfo {
	opts := cfg.Design.Opts
	opts.CodecParallelism = 0 // fan-out never changes bytes
	return StateInfo{
		Step:           step,
		Workers:        cfg.Workers,
		Scheme:         cfg.Design.Scheme,
		Steps:          cfg.Steps,
		Seed:           cfg.Seed,
		BatchPerWorker: cfg.BatchPerWorker,
		Opts:           opts,
	}
}

// appendMeta serializes the fingerprint as the meta section ReadStateInfo
// decodes.
func (info StateInfo) appendMeta(meta []byte) []byte {
	meta = tle.AppendUint32(meta, trainStateVersion)
	meta = tle.AppendUint64(meta, uint64(info.Step))
	meta = tle.AppendUint32(meta, uint32(info.Workers))
	meta = tle.AppendUint32(meta, 1) // shard slot: one in-process server (see ReadStateInfo)
	meta = append(meta, byte(info.Scheme))
	meta = tle.AppendUint32(meta, uint32(info.Steps))
	meta = tle.AppendUint64(meta, info.Seed)
	meta = tle.AppendUint32(meta, uint32(info.BatchPerWorker))
	meta = tle.AppendUint64(meta, math.Float64bits(info.Opts.Sparsity))
	meta = tle.AppendUint64(meta, math.Float64bits(info.Opts.Fraction))
	meta = tle.AppendUint32(meta, uint32(info.Opts.Interval))
	meta = tle.AppendUint32(meta, 0) // reserved: the retired round-robin scheme's partition count
	if info.Opts.ZeroRun {
		meta = append(meta, 1)
	} else {
		meta = append(meta, 0)
	}
	return tle.AppendUint64(meta, info.Opts.Seed)
}

// metaLen is the length of a meta section (version 3's layout is version 2's).
const metaLen = 4 + 8 + 4 + 4 + 1 + 4 + 8 + 4 + 8 + 8 + 4 + 4 + 1 + 8

// ReadStateInfo decodes the meta section of a full-state checkpoint.
func ReadStateInfo(st *checkpoint.State) (StateInfo, error) {
	meta, err := section(st, "meta")
	if err != nil {
		return StateInfo{}, err
	}
	if len(meta) < 4 {
		return StateInfo{}, fmt.Errorf("train: meta section is %d bytes, want %d", len(meta), metaLen)
	}
	switch v := tle.Uint32(meta); {
	case v == 1:
		return StateInfo{}, fmt.Errorf("train: train-state version 1 is retired (it fingerprinted Staleness, BackupWorkers, ComputeJitterStd and Dropouts, and carried pullhist / missed pull wires); this build reads version %d: restart the run", trainStateVersion)
	case v == 2:
		return StateInfo{}, fmt.Errorf("train: train-state version 2 is retired (the server stepped the batch-norm tensors and kept their velocity; worker %d steps them now and keeps it in its own section); this build reads version %d: restart the run", ps.Owner, trainStateVersion)
	case v != trainStateVersion:
		return StateInfo{}, fmt.Errorf("train: unsupported train-state version %d (have %d)", v, trainStateVersion)
	case len(meta) != metaLen:
		return StateInfo{}, fmt.Errorf("train: meta section is %d bytes, want %d", len(meta), metaLen)
	case tle.Uint32(meta[16:]) != 1: // the shard slot
		return StateInfo{}, fmt.Errorf("train: checkpoint was written by the deleted in-process sharded tier (%d shards), whose server state this build cannot read: restart the run", tle.Uint32(meta[16:]))
	}
	return StateInfo{
		Step:           int(tle.Uint64(meta[4:])),
		Workers:        int(tle.Uint32(meta[12:])),
		Scheme:         compress.Scheme(meta[20]),
		Steps:          int(tle.Uint32(meta[21:])),
		Seed:           tle.Uint64(meta[25:]),
		BatchPerWorker: int(tle.Uint32(meta[33:])),
		Opts: compress.Options{
			Sparsity: math.Float64frombits(tle.Uint64(meta[37:])),
			Fraction: math.Float64frombits(tle.Uint64(meta[45:])),
			Interval: int(tle.Uint32(meta[53:])),
			// meta[57:61] is the reserved slot, ignored.
			ZeroRun: meta[61] == 1,
			Seed:    tle.Uint64(meta[62:]),
		},
	}, nil
}

// restore rebuilds the run's full mutable state from a snapshot and
// returns the step to continue from. The configuration fingerprint must
// match the snapshot's; anything else is an error, never a silent
// divergence.
func (r *run) restore(st *checkpoint.State) (int, error) {
	cfg, global, workers := &r.cfg, r.global, r.workers
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
	if sec, err = section(st, "rng"); err != nil {
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
	return step, nil
}
