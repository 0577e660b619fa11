// Quickstart: compress one gradient-like tensor through the full 3LC
// pipeline, stage by stage, and verify the error-accumulation invariant.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"threelc/internal/compress"
	"threelc/internal/encode"
	"threelc/internal/quant"
	"threelc/internal/tensor"
)

func main() {
	const n = 100_000
	rng := tensor.NewRNG(42)

	// A synthetic gradient: zero-centred with a few large outliers, the
	// distribution 3-value quantization exploits.
	grad := tensor.New(n)
	tensor.FillNormal(grad, 0.01, rng)

	fmt.Println("== Stage by stage (s = 1.75) ==")
	// Stage 1: 3-value quantization with sparsity multiplication.
	tv := quant.Quantize3(grad, 1.75)
	fmt.Printf("3-value quantization:  %d elements -> {-1,0,+1} with M = %.5f\n", tv.Len(), tv.M)
	fmt.Printf("                       %d zeros (%.1f%%) for zero-run encoding to exploit\n",
		tv.CountZeros(), 100*float64(tv.CountZeros())/float64(n))

	// Stage 2: quartic encoding, five ternary digits per byte.
	qe := encode.QuarticEncode(tv.Q)
	fmt.Printf("quartic encoding:      %d bytes (%.3f bits/elem; 2-bit packing would use %.3f)\n",
		len(qe), float64(len(qe))*8/n, 2.0)

	// Stage 3: zero-run encoding of 121-runs.
	zre := encode.ZeroRunEncode(qe)
	fmt.Printf("zero-run encoding:     %d bytes (%.3f bits/elem)\n", len(zre), float64(len(zre))*8/n)
	fmt.Printf("end-to-end ratio:      %.1fx over 32-bit floats\n\n", float64(4*n)/float64(len(zre)))

	// The compress package wraps the stages behind one call with
	// per-tensor error accumulation across steps. Feed a persistent
	// (biased) gradient signal: the cumulative input grows linearly,
	// while the residual — the part error accumulation still owes the
	// receiver — stays bounded, so everything is eventually delivered.
	fmt.Println("== Compression context across 50 training steps ==")
	ctx := compress.New(compress.SchemeThreeLC, []int{n}, compress.Options{Sparsity: 1.0, ZeroRun: true})
	totalIn := tensor.New(n)
	totalOut := tensor.New(n)
	for step := 1; step <= 50; step++ {
		tensor.FillNormal(grad, 0.01, rng)
		for i := range grad.Data() {
			grad.Data()[i] += 0.004 // persistent drift, like a real gradient direction
		}
		totalIn.Add(grad)

		wire := ctx.CompressInto(grad, nil)
		out, err := compress.Decompress(wire, []int{n})
		if err != nil {
			panic(err)
		}
		totalOut.Add(out)
		if step%10 == 0 {
			diff := totalIn.Clone()
			diff.Sub(totalOut)
			fmt.Printf("step %2d: wire %6d B  cumulative input %.4f  undelivered residual %.4f (mean abs)\n",
				step, len(wire), totalIn.MeanAbs(), diff.MeanAbs())
		}
	}
	fmt.Println("\nThe residual stays bounded while the input keeps growing: error")
	fmt.Println("accumulation delivers every state change eventually (§3.1).")
}
