package compress

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"threelc/internal/quant"
	"threelc/internal/tensor"
)

func randTensor(seed uint64, n int, std float64) *tensor.Tensor {
	rng := tensor.NewRNG(seed)
	tt := tensor.New(n)
	tensor.FillNormal(tt, std, rng)
	return tt
}

func TestSchemeString(t *testing.T) {
	names := map[Scheme]string{
		SchemeNone:       "32-bit float",
		SchemeInt8:       "8-bit int",
		SchemeThreeLC:    "3LC",
		SchemeStoch3QE:   "Stoch 3-value + QE",
		SchemeMQE1Bit:    "MQE 1-bit int",
		SchemeTopK:       "sparsification",
		SchemeLocalSteps: "local steps",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
}

func TestNoneExactRoundTrip(t *testing.T) {
	shape := []int{7, 13}
	c := New(SchemeNone, shape, Options{})
	in := randTensor(1, 7*13, 0.5).Reshape(7, 13)
	wire := c.CompressInto(in, nil)
	if len(wire) != 1+4*91 {
		t.Fatalf("wire size %d", len(wire))
	}
	out, err := Decompress(wire, shape)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(in.Reshape(7, 13)) {
		t.Error("float32 baseline must be lossless")
	}
}

func TestInt8WireRoundTrip(t *testing.T) {
	shape := []int{100}
	c := New(SchemeInt8, shape, Options{})
	in := randTensor(2, 100, 0.5)
	out, err := Decompress(c.CompressInto(in, nil), shape)
	if err != nil {
		t.Fatal(err)
	}
	m := in.MaxAbs()
	for i := range in.Data() {
		if math.Abs(float64(in.Data()[i]-out.Data()[i])) > float64(m)/254+1e-6 {
			t.Fatalf("int8 error too large at %d", i)
		}
	}
}

func TestThreeLCWireRoundTripMatchesLocalDequant(t *testing.T) {
	// The receiver must reconstruct exactly what the sender's local
	// dequantization produced — otherwise error accumulation would
	// correct the wrong error. The fused compressor no longer keeps a
	// dequantization tensor, so the expectation is recomputed with the
	// staged reference pipeline from a snapshot of the error buffer.
	shape := []int{997} // not a multiple of 5: exercises padding
	c := New(SchemeThreeLC, shape, Options{Sparsity: 1.5, ZeroRun: true}).(*threeLCCompressor)
	for round := 0; round < 10; round++ {
		in := randTensor(uint64(round+10), 997, 0.01)
		sum := tensor.FromSlice(append([]float32(nil), c.acc...), 997)
		sum.Add(in)
		want := quant.Dequantize3(quant.Quantize3(sum, 1.5))
		wire := c.CompressInto(in, nil)
		out, err := Decompress(wire, shape)
		if err != nil {
			t.Fatal(err)
		}
		if !out.Equal(want) {
			t.Fatalf("round %d: receiver reconstruction != sender local dequant", round)
		}
	}
}

func TestThreeLCNoZRERoundTrip(t *testing.T) {
	shape := []int{503}
	c := New(SchemeThreeLC, shape, Options{Sparsity: 1.0, ZeroRun: false})
	in := randTensor(3, 503, 0.1)
	wire := c.CompressInto(in, nil)
	// no-ZRE payload is exactly header + ceil(n/5).
	if len(wire) != 1+4+1+101 {
		t.Fatalf("no-ZRE wire size %d", len(wire))
	}
	if _, err := Decompress(wire, shape); err != nil {
		t.Fatal(err)
	}
}

func TestThreeLCZRESmallerOnSparseData(t *testing.T) {
	shape := []int{10000}
	in := tensor.New(10000)
	in.Data()[0] = 1 // single spike: quantization output is nearly all zeros
	zre := New(SchemeThreeLC, shape, Options{Sparsity: 1.0, ZeroRun: true}).CompressInto(in, nil)
	raw := New(SchemeThreeLC, shape, Options{Sparsity: 1.0, ZeroRun: false}).CompressInto(in, nil)
	if len(zre) >= len(raw) {
		t.Errorf("ZRE (%d B) should beat plain quartic (%d B) on sparse data", len(zre), len(raw))
	}
	if float64(len(raw))/float64(len(zre)) < 10 {
		t.Errorf("expected large ZRE gain on near-zero tensor, got %.1fx", float64(len(raw))/float64(len(zre)))
	}
}

func TestThreeLCErrorAccumulationAcrossCalls(t *testing.T) {
	shape := []int{64}
	c := New(SchemeThreeLC, shape, Options{Sparsity: 1.0, ZeroRun: true})
	in := tensor.New(64)
	in.Fill(0.3)
	in.Data()[0] = 1 // dominates M
	total := tensor.New(64)
	rounds := 100
	for i := 0; i < rounds; i++ {
		out, err := Decompress(c.CompressInto(in, nil), shape)
		if err != nil {
			t.Fatal(err)
		}
		total.Add(out)
	}
	// Every element must be delivered at its true rate.
	for i, want := range in.Data() {
		got := total.Data()[i] / float32(rounds)
		if math.Abs(float64(got-want)) > 0.05 {
			t.Errorf("element %d delivered at %v, want %v", i, got, want)
		}
	}
}

func TestStochRoundTrip(t *testing.T) {
	shape := []int{1001}
	c := New(SchemeStoch3QE, shape, Options{Seed: 42})
	in := randTensor(4, 1001, 0.2)
	wire := c.CompressInto(in, nil)
	out, err := Decompress(wire, shape)
	if err != nil {
		t.Fatal(err)
	}
	m := in.MaxAbs()
	for _, v := range out.Data() {
		if v != 0 && math.Abs(math.Abs(float64(v))-float64(m)) > 1e-6 {
			t.Fatalf("stochastic output %v not in {0, +-M}", v)
		}
	}
}

func TestStochDeterministicPerSeed(t *testing.T) {
	shape := []int{100}
	in := randTensor(5, 100, 0.2)
	w1 := New(SchemeStoch3QE, shape, Options{Seed: 7}).CompressInto(in, nil)
	w2 := New(SchemeStoch3QE, shape, Options{Seed: 7}).CompressInto(in, nil)
	if string(w1) != string(w2) {
		t.Error("same seed must give same wire")
	}
}

func TestMQE1BitRoundTrip(t *testing.T) {
	shape := []int{777}
	c := New(SchemeMQE1Bit, shape, Options{})
	in := randTensor(6, 777, 0.3)
	out, err := Decompress(c.CompressInto(in, nil), shape)
	if err != nil {
		t.Fatal(err)
	}
	// Outputs take exactly two values.
	vals := make(map[float32]bool)
	for _, v := range out.Data() {
		vals[v] = true
	}
	if len(vals) > 2 {
		t.Errorf("1-bit reconstruction has %d distinct values", len(vals))
	}
}

func TestMQE1BitErrorFeedbackDelivers(t *testing.T) {
	shape := []int{32}
	c := New(SchemeMQE1Bit, shape, Options{})
	in := tensor.New(32)
	for i := range in.Data() {
		in.Data()[i] = float32(i-16) / 16
	}
	total := tensor.New(32)
	rounds := 200
	for i := 0; i < rounds; i++ {
		out, err := Decompress(c.CompressInto(in, nil), shape)
		if err != nil {
			t.Fatal(err)
		}
		total.Add(out)
	}
	for i, want := range in.Data() {
		got := total.Data()[i] / float32(rounds)
		if math.Abs(float64(got-want)) > 0.08 {
			t.Errorf("element %d delivered at %v, want %v", i, got, want)
		}
	}
}

func TestTopKRoundTrip(t *testing.T) {
	shape := []int{1000}
	c := New(SchemeTopK, shape, Options{Fraction: 0.25, Seed: 1})
	in := randTensor(7, 1000, 0.5)
	out, err := Decompress(c.CompressInto(in, nil), shape)
	if err != nil {
		t.Fatal(err)
	}
	// Transmitted values are exact; the rest decode to zero.
	nonzero := 0
	for i, v := range out.Data() {
		if v != 0 {
			nonzero++
			if v != in.Data()[i] {
				t.Fatalf("transmitted value %d altered", i)
			}
		}
	}
	if nonzero == 0 || nonzero > 600 {
		t.Errorf("unexpected selection count %d", nonzero)
	}
}

func TestTopKFractionValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for missing Fraction")
		}
	}()
	New(SchemeTopK, []int{10}, Options{})
}

func TestLocalStepsCadence(t *testing.T) {
	shape := []int{50}
	c := New(SchemeLocalSteps, shape, Options{Interval: 2})
	in := tensor.New(50)
	in.Fill(0.5)
	w1 := c.CompressInto(in, nil)
	if len(w1) != 0 {
		t.Fatalf("step 1 should transmit nothing, got %d bytes", len(w1))
	}
	w2 := c.CompressInto(in, nil)
	if len(w2) == 0 {
		t.Fatal("step 2 should transmit")
	}
	out, err := Decompress(w2, shape)
	if err != nil {
		t.Fatal(err)
	}
	// Two accumulated steps of 0.5 each.
	for _, v := range out.Data() {
		if v != 1.0 {
			t.Fatalf("accumulated value %v, want 1.0", v)
		}
	}
}

func TestLocalStepsEmptyWireDecodesToZero(t *testing.T) {
	out, err := Decompress(nil, []int{10})
	if err != nil {
		t.Fatal(err)
	}
	if out.MaxAbs() != 0 {
		t.Error("empty wire must decode to zeros")
	}
}

func TestDefaultIntervalAndSparsity(t *testing.T) {
	c := New(SchemeLocalSteps, []int{10}, Options{}) // Interval 0 -> 2
	if c.Name() != "2 local steps" {
		t.Errorf("Name = %q", c.Name())
	}
	c3 := New(SchemeThreeLC, []int{10}, Options{ZeroRun: true}) // Sparsity 0 -> 1
	if c3.Name() != "3LC (s=1.00)" {
		t.Errorf("Name = %q", c3.Name())
	}
}

func TestUnknownSchemePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Scheme(99), []int{4}, Options{})
}

// TestDecompressMalformed: a malformed wire of every scheme is refused, and
// a refused DecompressInto leaves its stale destination all +0 — the state
// of a fresh sum whose first accumulation was rejected.
func TestDecompressMalformed(t *testing.T) {
	shape := []int{100}
	cases := map[string][]byte{
		"unknown scheme":    {99, 0, 0},
		"short raw":         {byte(SchemeNone), 1, 2, 3},
		"short local steps": {byte(SchemeLocalSteps), 1, 2, 3},
		"short int8":        {byte(SchemeInt8), 1, 2},
		"short ternary":     {byte(SchemeThreeLC), 1},
		"short stoch":       {byte(SchemeStoch3QE), 1},
		"bad quartic":       append([]byte{byte(SchemeThreeLC), 0, 0, 0, 0, 0}, make([]byte, 3)...),
		"short onebit":      {byte(SchemeMQE1Bit), 0, 0, 0, 0},
		"short topk":        {byte(SchemeTopK), 0},
		"short packed":      {byte(SchemePacked32), 0, 0, 0},
	}
	for name, wire := range cases {
		if _, err := Decompress(wire, shape); err == nil {
			t.Errorf("%s: expected decode error", name)
		}
		dst := randTensor(7, shape[0], 1)
		if err := DecompressInto(wire, dst); err == nil {
			t.Errorf("%s: DecompressInto accepted it", name)
		}
		for i, v := range dst.Data() {
			if math.Float32bits(v) != 0 {
				t.Fatalf("%s: refused DecompressInto left %#x at %d, want +0", name, math.Float32bits(v), i)
			}
		}
	}
}

// TestTernaryFlagsByteExact: the ternary decoders accept exactly two flags
// values. Every other byte — the reserved 0x01 of the retired capped
// zero-run spelling included — is refused with the one error naming the
// byte, before the body is read and — on the add path — before dst is
// touched; a flipped bit or a future format is never decoded as if it were
// today's.
func TestTernaryFlagsByteExact(t *testing.T) {
	const n = 100
	in := tensor.New(n)
	tensor.FillNormal(in, 0.1, tensor.NewRNG(3))
	for _, sc := range []struct {
		s Scheme
		o Options
	}{
		{SchemeThreeLC, Options{Sparsity: 1.5, ZeroRun: true}},
		{SchemeThreeLC, Options{Sparsity: 1.0}},
		{SchemeStoch3QE, Options{Seed: 1}},
	} {
		wire := New(sc.s, []int{n}, sc.o).CompressInto(in, nil)
		good := wire[5]
		if want := map[bool]byte{true: 0x03, false: 0}[sc.o.ZeroRun]; good != want {
			t.Fatalf("%v zre=%v: emitted flags %#02x, want %#02x", sc.s, sc.o.ZeroRun, good, want)
		}
		for flags := 0; flags < 256; flags++ {
			wire[5] = byte(flags)
			acc := tensor.New(n)
			acc.Fill(1)
			_, err := Decompress(wire, []int{n})
			errAdd := DecompressAddInto(wire, acc, 1)
			if byte(flags) == good {
				if err != nil || errAdd != nil {
					t.Fatalf("%v: own flags %#02x refused: %v / %v", sc.s, flags, err, errAdd)
				}
				continue
			}
			// The other legal value is a different body grammar; it may
			// or may not parse, but it is not a flags error.
			if flags == 0 || flags == 0x03 {
				continue
			}
			want := fmt.Sprintf("compress: ternary flags byte %#02x has unknown bits (want 0 or 0x03)", flags)
			for _, e := range []error{err, errAdd} {
				if e == nil || e.Error() != want {
					t.Fatalf("%v: flags %#02x: error %v, want %q", sc.s, flags, e, want)
				}
			}
			for i, v := range acc.Data() {
				if v != 1 {
					t.Fatalf("%v: flags %#02x: refused wire wrote dst[%d] = %v", sc.s, flags, i, v)
				}
			}
		}
	}
}

// TestSchemeBytesPinned pins every scheme's wire byte: a scheme deleted
// from the middle of the list must leave its byte reserved (7 and 8 are,
// so SchemePacked32 stays 9), or every scheme after it — in wires and in
// checkpoints — is silently renumbered.
func TestSchemeBytesPinned(t *testing.T) {
	for _, c := range []struct {
		s    Scheme
		want byte
	}{
		{SchemeNone, 0}, {SchemeInt8, 1}, {SchemeThreeLC, 2}, {SchemeStoch3QE, 3},
		{SchemeMQE1Bit, 4}, {SchemeTopK, 5}, {SchemeLocalSteps, 6}, {SchemePacked32, 9},
		{schemeCount, 10}, // a scheme added without a row here fails
	} {
		if byte(c.s) != c.want {
			t.Errorf("%v is byte %d on the wire, want %d", c.s, byte(c.s), c.want)
		}
	}
}

// TestRetiredSchemeByteRefused: a wire under a reserved scheme byte — 7,
// the retired round-robin exchange, and 8, the retired entropy stage — is
// refused as an unknown scheme byte on the decode and the add path, before
// the accumulator is touched.
func TestRetiredSchemeByteRefused(t *testing.T) {
	const n = 100
	in := tensor.New(n)
	tensor.FillNormal(in, 0.1, tensor.NewRNG(3))
	for _, b := range []byte{7, 8} {
		want := fmt.Sprintf("compress: unknown scheme byte %d", b)
		for _, sc := range fuzzSchemes {
			wire := append([]byte{b, 0}, newContext(sc.s, []int{n}, sc.o).CompressInto(in, nil)...)
			acc := tensor.New(n)
			acc.Fill(1)
			_, err := Decompress(wire, []int{n})
			errAdd := DecompressAddInto(wire, acc, 1)
			for _, e := range []error{err, errAdd} {
				if e == nil || e.Error() != want {
					t.Fatalf("%v under byte %d: %v, want %q", sc.s, b, e, want)
				}
			}
			for i, v := range acc.Data() {
				if v != 1 {
					t.Fatalf("%v under byte %d wrote dst[%d] = %v", sc.s, b, i, v)
				}
			}
		}
	}
}

func TestTopKBitmapValueCountMismatch(t *testing.T) {
	// Bitmap says 1 value selected but payload has none.
	wire := make([]byte, 1+13)
	wire[0] = byte(SchemeTopK)
	wire[1] = 1 // bit 0 set
	if _, err := Decompress(wire, []int{100}); err == nil {
		t.Error("expected mismatch error")
	}
}

func TestCompressSizeMismatchPanics(t *testing.T) {
	for _, s := range []Scheme{SchemeNone, SchemeInt8, SchemeThreeLC, SchemeStoch3QE, SchemeMQE1Bit, SchemeTopK, SchemeLocalSteps} {
		opt := Options{Fraction: 0.5}
		c := New(s, []int{10}, opt)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("scheme %v: expected panic on size mismatch", s)
				}
			}()
			c.CompressInto(tensor.New(11), nil)
		}()
	}
}

// Property: every scheme's wire decodes without error and preserves shape.
func TestAllSchemesDecodeProperty(t *testing.T) {
	schemes := []struct {
		s   Scheme
		opt Options
	}{
		{SchemeNone, Options{}},
		{SchemeInt8, Options{}},
		{SchemeThreeLC, Options{Sparsity: 1.5, ZeroRun: true}},
		{SchemeStoch3QE, Options{Seed: 1}},
		{SchemeMQE1Bit, Options{}},
		{SchemeTopK, Options{Fraction: 0.1, Seed: 1}},
	}
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw)%500 + 1
		in := randTensor(seed, n, 0.1)
		for _, sc := range schemes {
			c := New(sc.s, []int{n}, sc.opt)
			out, err := Decompress(c.CompressInto(in, nil), []int{n})
			if err != nil || out.Len() != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: 3LC compressed size never exceeds the no-ZRE size by more than
// the framing byte (ZRE never expands quartic data).
func TestZRENeverExpandsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		in := randTensor(seed, 2000, 0.05)
		zre := New(SchemeThreeLC, []int{2000}, Options{Sparsity: 1.0, ZeroRun: true}).CompressInto(in, nil)
		raw := New(SchemeThreeLC, []int{2000}, Options{Sparsity: 1.0, ZeroRun: false}).CompressInto(in, nil)
		return len(zre) <= len(raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
