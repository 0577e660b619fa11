// Command 3lc-compress demonstrates the tensor-compression pipeline on
// synthetic state-change data: it generates a gradient-like tensor (zero
// centered, heavy tailed), runs it through a chosen scheme, and reports
// sizes, compression ratio, and reconstruction error.
//
// Example:
//
//	3lc-compress -n 1000000 -scheme 3lc -sparsity 1.75
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"threelc/internal/compress"
	"threelc/internal/tensor"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command on args, printing to stdout and stderr; it returns
// the exit status: 2 for a flag it refuses, 1 for a decode error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("3lc-compress", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		n        = fs.Int("n", 1_000_000, "number of tensor elements")
		scheme   = fs.String("scheme", "3lc", "scheme: float32 | int8 | stoch3 | mqe1bit | sparse25 | sparse5 | 3lc")
		sparsity = fs.Float64("sparsity", 1.0, "3LC sparsity multiplier")
		noZRE    = fs.Bool("no-zre", false, "disable zero-run encoding")
		std      = fs.Float64("std", 0.01, "std dev of synthetic gradient values")
		seed     = fs.Uint64("seed", 1, "random seed")
		rounds   = fs.Int("rounds", 5, "compression rounds (error accumulation across rounds)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *n < 1 {
		fmt.Fprintf(stderr, "3lc-compress: -n must be at least 1, got %d\n", *n)
		return 2
	}

	var sch compress.Scheme
	opts := compress.Options{Seed: *seed}
	switch *scheme {
	case "float32":
		sch = compress.SchemeNone
	case "int8":
		sch = compress.SchemeInt8
	case "stoch3":
		sch = compress.SchemeStoch3QE
	case "mqe1bit":
		sch = compress.SchemeMQE1Bit
	case "sparse25":
		sch, opts.Fraction = compress.SchemeTopK, 0.25
	case "sparse5":
		sch, opts.Fraction = compress.SchemeTopK, 0.05
	case "3lc":
		if !(*sparsity >= 1 && *sparsity < 2) {
			fmt.Fprintf(stderr, "3lc-compress: -sparsity must be in [1, 2), got %v\n", *sparsity)
			return 2
		}
		sch, opts.Sparsity, opts.ZeroRun = compress.SchemeThreeLC, *sparsity, !*noZRE
	default:
		fmt.Fprintf(stderr, "3lc-compress: unknown scheme %q\n", *scheme)
		return 2
	}

	shape := []int{*n}
	c := compress.New(sch, shape, opts)
	rng := tensor.NewRNG(*seed)

	fmt.Fprintf(stdout, "scheme: %s, %d elements (%d raw bytes)\n", c.Name(), *n, 4**n)
	for round := 1; round <= *rounds; round++ {
		in := tensor.New(shape...)
		tensor.FillNormal(in, *std, rng)

		start := time.Now()
		wire := c.CompressInto(in, nil)
		compDur := time.Since(start)

		start = time.Now()
		out, err := compress.Decompress(wire, shape)
		if err != nil {
			fmt.Fprintln(stderr, "3lc-compress:", err)
			return 1
		}
		decDur := time.Since(start)

		var mse float64
		for i, v := range in.Data() {
			d := float64(v - out.Data()[i])
			mse += d * d
		}
		mse /= float64(*n)

		ratio := float64(4**n) / float64(len(wire))
		fmt.Fprintf(stdout, "round %d: wire %9d B  ratio %7.1fx  %5.3f bits/elem  rmse %.3e  comp %8s  decomp %8s\n",
			round, len(wire), ratio, float64(len(wire))*8/float64(*n),
			math.Sqrt(mse), compDur.Round(time.Microsecond), decDur.Round(time.Microsecond))
	}
	return 0
}
