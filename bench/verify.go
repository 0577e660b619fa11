package main

import (
	"crypto/sha256"
	"fmt"
	"sync"

	"threelc/internal/ps"
	"threelc/internal/tensor"
)

// referenceRun trains the workload's model in process — one ps.Job, the
// same two ps.Workers, no sockets, no shards, whole-set pushes — for the
// same seed, schedule horizon and total step count as a pass over TCP, and returns the
// fingerprint of the final global weights. The repo's invariants (TCP =
// in-process, sharded = single server, streamed = whole-set) say a pass's
// global weights must match it bit for bit.
func referenceRun(wl *workload, seed uint64, horizon, steps int) ([sha256.Size]byte, error) {
	in := makeInputs(seed)
	cfg := wl.psConfig(horizon)
	global := wl.build(in)
	job := ps.NewJob(global, cfg)
	workers := make([]*ps.Worker, numWorkers)
	rngs := make([]*tensor.RNG, numWorkers)
	for w := range workers {
		m := wl.build(in)
		m.CopyParamsFrom(global)
		workers[w] = ps.NewWorker(w, m, cfg)
		rngs[w] = tensor.NewRNG(batchSeed(seed, w))
	}
	wires := make([][][]byte, numWorkers)
	errs := make([]error, numWorkers)
	// The two workers' halves of a step run side by side, as they do over
	// TCP; pushes are still ingested in worker order.
	each := func(fn func(w int)) {
		var wg sync.WaitGroup
		for w := range workers {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				fn(w)
			}(w)
		}
		wg.Wait()
	}
	for s := 0; s < steps; s++ {
		each(func(w int) {
			idx := make([]int, batchSize)
			for i := range idx {
				idx[i] = rngs[w].Intn(in.train.Len())
			}
			x, labels := in.train.FlatBatch(idx, nil, nil)
			workers[w].Model.TrainStep(x, labels)
			wires[w], _ = workers[w].CompressGrads()
		})
		job.BeginStep()
		for w := range workers {
			sess := job.BeginPush(w)
			if err := sess.Set(wires[w]); err != nil {
				return [sha256.Size]byte{}, fmt.Errorf("reference step %d: %w", s, err)
			}
			if err := sess.End(); err != nil {
				return [sha256.Size]byte{}, fmt.Errorf("reference step %d: %w", s, err)
			}
		}
		pull, _, err := job.FinishStep()
		if err != nil {
			return [sha256.Size]byte{}, fmt.Errorf("reference step %d: %w", s, err)
		}
		each(func(w int) { _, errs[w] = workers[w].ApplyPull(pull) })
		for _, err := range errs {
			if err != nil {
				return [sha256.Size]byte{}, fmt.Errorf("reference step %d: %w", s, err)
			}
		}
	}
	return hashParams(global), nil
}
