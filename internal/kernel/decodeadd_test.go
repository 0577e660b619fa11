package kernel

import (
	"math"
	"testing"

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

// TestDecodeTernaryAddParallelMatchesSerial pins the range-partitioned
// multi-payload form against serial payload-by-payload accumulation for
// several worker counts, payload counts, and tail shapes.
func TestDecodeTernaryAddParallelMatchesSerial(t *testing.T) {
	for _, n := range []int{scaledLUTMinElems + 2, 1<<16 + 3, 1 << 17} {
		for _, payloads := range []int{1, 3, 5} {
			wires := make([]TernaryWire, payloads)
			for p := range wires {
				std := 0.002 * float64(p+1) // vary zero-run density per payload
				body, m := mkTernaryWire(uint64(3*n+p), n, std, 1.75, true)
				wires[p] = TernaryWire{Body: body, ZRE: true, M: m}
			}
			want := make([]float32, n)
			for p := range wires {
				if err := DecodeTernaryAdd(wires[p].Body, wires[p].ZRE, wires[p].M, want); err != nil {
					t.Fatal(err)
				}
			}
			for _, workers := range []int{1, 2, 3, 8} {
				got := make([]float32, n)
				if err := DecodeTernaryAddParallel(wires, got, workers); err != nil {
					t.Fatalf("n=%d payloads=%d workers=%d: %v", n, payloads, workers, err)
				}
				if i, ok := bitsEqual(got, want); !ok {
					t.Fatalf("n=%d payloads=%d workers=%d: differs at %d",
						n, payloads, workers, i)
				}
			}
		}
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
			wires := []TernaryWire{{Body: valid, ZRE: true, M: m}, {Body: tc.body, ZRE: tc.zre, M: m}}
			if err := DecodeTernaryAddParallel(wires, acc, 4); err == nil {
				t.Fatal("parallel: malformed payload accepted")
			}
			if i, ok := bitsEqual(acc, snap); !ok {
				t.Fatalf("parallel: accumulator corrupted at %d (valid payload must not be applied when a later one is rejected)", i)
			}
		})
	}
}

// TestDecodeAddPassCount extends the pass-count invariant to aggregation:
// fused decode+add is exactly ONE sweep of tensor memory per payload (the
// validation pre-scan walks wire bytes only), serial and parallel forms
// alike.
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
		t.Fatalf("serial decode-add made passes %v, want exactly [lut-decode-add]", passes)
	}

	passes = nil
	wires := []TernaryWire{{Body: body, ZRE: true, M: m}, {Body: body, ZRE: true, M: m}, {Body: body, ZRE: true, M: m}}
	if err := DecodeTernaryAddParallel(wires, dst, 4); err != nil {
		t.Fatal(err)
	}
	if len(passes) != len(wires) {
		t.Fatalf("parallel decode-add of %d payloads made %d passes, want one per payload", len(wires), len(passes))
	}
}

// TestEncodeInt8MatchesStaged pins the fused int8 quantize-to-wire kernel
// against the staged quantize-into-scratch + byte-copy reference, serial
// and chunked.
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
			t.Fatalf("n=%d: serial fused int8 bytes differ from staged", n)
		}
		for _, workers := range []int{2, 3, 16} {
			got := EncodeInt8Parallel(in.Data(), m, nil, workers)
			if string(got) != string(want) {
				t.Fatalf("n=%d workers=%d: parallel fused int8 bytes differ", n, workers)
			}
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

// TestSpanBounds sanity-checks the shared boundary computation.
func TestSpanBounds(t *testing.T) {
	for _, tc := range []struct{ n, align, workers int }{
		{0, 5, 4}, {1, 5, 4}, {23, 5, 4}, {100, 5, 3}, {1 << 16, 5, 7}, {1 << 16, 1, 16},
	} {
		b := spanBounds(tc.n, tc.align, tc.workers)
		if b[0] != 0 || b[len(b)-1] != tc.n {
			t.Fatalf("%+v: bounds %v do not cover [0, n)", tc, b)
		}
		for i := 1; i < len(b); i++ {
			if b[i] < b[i-1] {
				t.Fatalf("%+v: bounds %v not monotonic", tc, b)
			}
			if i < len(b)-1 && b[i]%tc.align != 0 {
				t.Fatalf("%+v: interior bound %d not aligned", tc, b[i])
			}
		}
		if len(b)-1 > tc.workers && tc.n > 0 {
			t.Fatalf("%+v: %d spans exceed worker budget", tc, len(b)-1)
		}
	}
}
