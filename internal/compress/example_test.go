package compress_test

import (
	"fmt"

	"threelc/internal/compress"
	"threelc/internal/tensor"
)

// Example demonstrates the basic 3LC round trip: one compression context
// per tensor, compress on the sender, stateless decompress on the
// receiver.
func Example() {
	grad := tensor.FromSlice([]float32{-0.3, 0.1, -0.4, 0, 0.2, -0.1, -0.1, -0.1, 0, 0.3}, 10)

	ctx := compress.New(compress.SchemeThreeLC, grad.Shape(),
		compress.Options{Sparsity: 1.0, ZeroRun: true})
	wire := ctx.CompressInto(grad, nil)
	out, err := compress.Decompress(wire, grad.Shape())
	if err != nil {
		panic(err)
	}

	fmt.Printf("raw %d bytes -> wire %d bytes\n", 4*grad.Len(), len(wire))
	fmt.Printf("reconstruction: %v\n", out.Data())
	// Output:
	// raw 40 bytes -> wire 8 bytes
	// reconstruction: [-0.4 0 -0.4 0 0.4 0 0 0 0 0.4]
}

// ExampleCompressor_errorAccumulation shows how the context's error
// accumulation delivers values that individual steps quantize away: the
// small 0.1 entries are below the rounding threshold every step, yet
// their accumulated sum is transmitted every few steps.
func Example_errorAccumulation() {
	in := tensor.FromSlice([]float32{1.0, 0.1}, 2)
	ctx := compress.New(compress.SchemeThreeLC, in.Shape(),
		compress.Options{Sparsity: 1.0, ZeroRun: true})

	total := tensor.New(2)
	for step := 0; step < 10; step++ {
		out, err := compress.Decompress(ctx.CompressInto(in, nil), in.Shape())
		if err != nil {
			panic(err)
		}
		total.Add(out)
	}
	fmt.Printf("after 10 steps: delivered %.1f and %.1f (inputs sum to 10.0 and 1.0)\n",
		total.Data()[0], total.Data()[1])
	// Output:
	// after 10 steps: delivered 10.0 and 1.0 (inputs sum to 10.0 and 1.0)
}
