package kernel

import (
	"math"
	"testing"

	"threelc/internal/encode"
	"threelc/internal/quant"
	"threelc/internal/tensor"
)

// mkTernaryWire builds a valid ternary wire body (and its scale) from a
// fresh error accumulator over random data, exercising real zero-run
// structure.
func mkTernaryWire(seed uint64, n int, std, sparsity float64, zre bool) (body []byte, m float32) {
	in := tensor.New(n)
	fillRand(in, seed, std)
	buf := make([]float32, n)
	mm := float64(AccumulateMaxAbs(buf, in.Data())) * sparsity
	return EncodeTernary(buf, mm, zre, nil), float32(mm)
}

// stagedDecodeAdd is the reference composition: fused decode into scratch,
// then an element-wise add.
func stagedDecodeAdd(t *testing.T, body []byte, zre bool, m float32, dst []float32) {
	t.Helper()
	tmp := make([]float32, len(dst))
	if err := DecodeTernary(body, zre, m, tmp); err != nil {
		t.Fatal(err)
	}
	for i, v := range tmp {
		dst[i] += v
	}
}

// TestDecodeTernaryAddMatchesStaged pins the fused decode-accumulate
// against decode-then-add bit for bit, across sizes on both sides of the
// ScaledLUT threshold, both ZRE settings, and repeated accumulation.
func TestDecodeTernaryAddMatchesStaged(t *testing.T) {
	for _, n := range []int{1, 7, 640, 1003, scaledLUTMinElems + 13, 1 << 16} {
		for _, zre := range []bool{true, false} {
			body, m := mkTernaryWire(uint64(n), n, 0.01, 1.75, zre)
			want := make([]float32, n)
			got := make([]float32, n)
			fillRand(tensor.FromSlice(want, n), 99, 0.5)
			copy(got, want)
			for step := 0; step < 3; step++ {
				stagedDecodeAdd(t, body, zre, m, want)
				if err := DecodeTernaryAdd(body, zre, m, got); err != nil {
					t.Fatalf("n=%d zre=%v: %v", n, zre, err)
				}
			}
			if i, ok := bitsEqual(got, want); !ok {
				t.Fatalf("n=%d zre=%v: fused add differs at %d: %x vs %x",
					n, zre, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
			}
		}
	}
}

// TestDecodeTernaryAddNonFinite covers non-finite scales: the additions
// must propagate NaN/Inf exactly like the staged composition.
func TestDecodeTernaryAddNonFinite(t *testing.T) {
	const n = 5000
	body, _ := mkTernaryWire(5, n, 0.01, 1.5, true)
	for _, m := range []float32{
		float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), -2.5, 0,
	} {
		want := make([]float32, n)
		got := make([]float32, n)
		fillRand(tensor.FromSlice(want, n), 7, 1)
		copy(got, want)
		stagedDecodeAdd(t, body, true, m, want)
		if err := DecodeTernaryAdd(body, true, m, got); err != nil {
			t.Fatal(err)
		}
		if i, ok := bitsEqual(got, want); !ok {
			t.Fatalf("m=%v: differs at %d: %x vs %x", m, i,
				math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
}

// TestLiveDecodeAddSpansBlockAligned holds the decode-add into a recorded
// sum to every literal group that crosses into a dead block over stale
// memory: the first group of a step to land in a block clears and stamps
// it, then adds. The literal groups sit on both sides of elements 3 335
// and 6 670, inside blocks 2 and 5, and two payloads land on them, so the
// second payload's groups must find the blocks the first one entered
// already live, step after step.
func TestLiveDecodeAddSpansBlockAligned(t *testing.T) {
	const n = 10000
	in := make([]float32, n)
	for _, b := range []int{3335, 6670} {
		if b%BlockElems == 0 {
			t.Fatalf("element %d is a block boundary", b)
		}
		for i := b - encode.GroupSize; i < b+encode.GroupSize; i++ {
			in[i] = 1
		}
	}
	buf := make([]float32, n)
	m := float64(AccumulateMaxAbs(buf, in))
	body := EncodeTernary(buf, m, true, nil)
	const payloads = 2
	want := make([]float32, n)
	for p := 0; p < payloads; p++ {
		if err := DecodeTernaryAdd(body, true, float32(m), want); err != nil {
			t.Fatal(err)
		}
	}
	var live LiveBlocks
	got := make([]float32, n)
	for step := 0; step < 20; step++ {
		for i := range got {
			got[i] = float32(math.NaN()) // what a dead block may hold
		}
		live.Reset()
		for p := 0; p < payloads; p++ {
			if err := live.DecodeTernaryAdd(body, true, float32(m), got); err != nil {
				t.Fatal(err)
			}
		}
		live.ClearDead(got)
		if i, ok := bitsEqual(got, want); !ok {
			t.Fatalf("step %d: element %d holds %x, want %x", step, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
}

// TestLiveBlocksReset pins the record's O(1) reset across the wrap of its
// epoch: a stamp left from 2^32 steps ago must not read as live.
func TestLiveBlocksReset(t *testing.T) {
	var live LiveBlocks
	dst := make([]float32, 3*BlockElems)
	if !live.Empty(len(dst)) {
		t.Fatal("a zero record has a live block")
	}
	spike := make([]float32, len(dst))
	spike[BlockElems+1] = 1
	body := EncodeTernary(spike, 1, true, nil)
	dst[BlockElems] = 7
	if err := live.DecodeTernaryAdd(body, true, 1, dst); err != nil {
		t.Fatal(err)
	}
	if live.Empty(len(dst)) || dst[BlockElems+1] != 1 || dst[BlockElems] != 0 {
		t.Fatalf("decode-add left block 1 as %v, live %v", dst[BlockElems:BlockElems+5], !live.Empty(len(dst)))
	}
	live.epoch = math.MaxUint32
	live.Mark(len(dst))
	live.Reset()
	if !live.Empty(len(dst)) {
		t.Fatal("a block stamped before the epoch wrapped reads as live")
	}
}

// TestDecodeTernaryAddRejectsMalformed feeds the malformed shapes the
// scan must catch and asserts the accumulator is never touched — the
// decode-ADD contract is stronger than decode-into's "unspecified on
// error".
func TestDecodeTernaryAddRejectsMalformed(t *testing.T) {
	const n = 640 // 128 groups
	valid, m := mkTernaryWire(2, n, 0.01, 1.75, true)
	cases := []struct {
		name string
		body []byte
		zre  bool
	}{
		{"truncated", valid[:len(valid)-1], true},
		{"overlong", append(append([]byte{}, valid...), 121), true},
		{"run overrun", append(append([]byte{}, valid...), 255), true},
		{"run byte without zre", []byte{243}, false},
		{"short quartic", make([]byte, 127), false},
		{"long quartic", make([]byte, 129), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			acc := make([]float32, n)
			fillRand(tensor.FromSlice(acc, n), 11, 1)
			snap := append([]float32(nil), acc...)
			if err := DecodeTernaryAdd(tc.body, tc.zre, m, acc); err == nil {
				t.Fatal("malformed payload accepted")
			}
			if i, ok := bitsEqual(acc, snap); !ok {
				t.Fatalf("accumulator corrupted at %d by rejected payload", i)
			}
		})
	}
}

// TestDecodeAddPassCount extends the pass-count invariant to aggregation:
// fused decode+add is exactly ONE sweep of tensor memory per payload (the
// validation pre-scan walks wire bytes only).
func TestDecodeAddPassCount(t *testing.T) {
	var passes []string
	PassHook = func(name string, elems int) { passes = append(passes, name) }
	defer func() { PassHook = nil }()

	const n = scaledLUTMinElems * 4
	body, m := mkTernaryWire(9, n, 0.01, 1.75, true)
	dst := make([]float32, n)

	passes = nil
	if err := DecodeTernaryAdd(body, true, m, dst); err != nil {
		t.Fatal(err)
	}
	if len(passes) != 1 || passes[0] != "lut-decode-add" {
		t.Fatalf("decode-add made passes %v, want exactly [lut-decode-add]", passes)
	}
}

// TestEncodeInt8MatchesStaged pins the fused int8 quantize-to-wire kernel
// against the staged quantize-into-scratch + byte-copy reference.
func TestEncodeInt8MatchesStaged(t *testing.T) {
	for _, n := range []int{1, 6, 1003, 1 << 16} {
		in := tensor.New(n)
		fillRand(in, uint64(n)+41, 0.01)
		var q quant.Int8Quantized
		quant.QuantizeInt8Into(in, &q)
		want := make([]byte, n)
		for i, v := range q.Q {
			want[i] = byte(v)
		}
		m := float64(in.MaxAbs())
		got := EncodeInt8(in.Data(), m, nil)
		if string(got) != string(want) {
			t.Fatalf("n=%d: fused int8 bytes differ from staged", n)
		}
	}
	// m == 0 emits all zero bytes, like the staged zero fill.
	zero := EncodeInt8(make([]float32, 9), 0, nil)
	for i, b := range zero {
		if b != 0 {
			t.Fatalf("m=0 byte %d = %d, want 0", i, b)
		}
	}
}
