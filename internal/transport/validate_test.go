package transport

import (
	"encoding/binary"
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"threelc/internal/compress"
	"threelc/internal/nn"
	"threelc/internal/opt"
	"threelc/internal/ps"
	"threelc/internal/tensor"
)

// sumSnapshot is a served job that keeps, at each BeginStep, the bits of
// every gradient sum as BeginStep left them, and counts the pushes the
// session hands it.
type sumSnapshot struct {
	*ps.Job
	sums   [][]uint32
	pushes int
}

func (j *sumSnapshot) AddPush(workerID int, wires [][]byte) (time.Duration, error) {
	j.pushes++
	return j.Job.AddPush(workerID, wires)
}

func (j *sumSnapshot) BeginStep() {
	j.Job.BeginStep()
	j.sums = j.sums[:0]
	for _, p := range j.Model.Params() {
		bits := make([]uint32, p.G.Len())
		for k, v := range p.G.Data() {
			bits[k] = math.Float32bits(v)
		}
		j.sums = append(j.sums, bits)
	}
}

// TestPushValidatedBeforeItIsApplied: a server receives a push whole
// before its aggregator sees any of it. A plain worker sends a valid first
// run — a real wire for slot 0 — and a second run that names slot 0
// again. Serve fails on the duplicate, the job was handed no push, and
// every gradient sum of the job is as BeginStep left it: run 1 was taken,
// not applied.
func TestPushValidatedBeforeItIsApplied(t *testing.T) {
	cfg := ps.Config{
		Scheme:           compress.SchemeThreeLC,
		Opts:             compress.Options{Sparsity: 1.5, ZeroRun: true},
		Workers:          1,
		MinCompressElems: 1,
		Optimizer:        opt.DefaultSGDConfig(1, 1),
	}
	build := func() *nn.Model { return nn.NewMLP(12, []int{16}, 4, 7) }
	global := build()
	job := &sumSnapshot{Job: ps.NewJob(global, cfg)}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	served := make(chan error, 1)
	srv := NewShardServer(ln, job, ShardServerConfig{NumShards: 1, Workers: 1, Steps: 1})
	go func() { served <- srv.Serve() }()

	m := build()
	m.CopyParamsFrom(global)
	wk := ps.NewWorker(0, m, cfg)
	for _, p := range m.Params() {
		tensor.FillNormal(p.G, 0.01, tensor.NewRNG(3))
	}
	wires, _ := wk.CompressGrads()
	if len(wires[0]) < 8 {
		t.Fatalf("slot 0's wire is %d bytes: it would change no sum", len(wires[0]))
	}
	// run is a run of worker 0's push at step 0 whose one entry is slot 0's
	// wire: slot delta 0, the length, the wire.
	run := func() []byte {
		b := AppendShardHeader(nil, ShardHeader{Version: ShardWireVersion})
		b = binary.AppendUvarint(append(b, 0), uint64(len(wires[0])))
		return append(b, wires[0]...)
	}
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	hello := binary.LittleEndian.AppendUint32(AppendShardHeader(nil, ShardHeader{Version: ShardWireVersion}), 0)
	for _, f := range []struct {
		t       MsgType
		payload []byte
	}{{MsgShardHello, hello}, {MsgShardPushRun, run()}, {MsgShardPushLast, run()}} {
		if err := WriteFrame(c, f.t, f.payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-served; err == nil || !strings.Contains(err.Error(), "duplicate slot 0") {
		t.Fatalf("Serve() = %v, want the duplicate slot refused", err)
	}
	if len(job.sums) == 0 {
		t.Fatal("the session began no step")
	}
	if job.pushes != 0 {
		t.Errorf("the session handed the job %d pushes", job.pushes)
	}
	for i, p := range global.Params() {
		for k, v := range p.G.Data() {
			if math.Float32bits(v) != job.sums[i][k] {
				t.Fatalf("tensor %q: sum element %d changed after BeginStep", p.Name, k)
			}
		}
	}
}
