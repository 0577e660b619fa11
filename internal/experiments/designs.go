// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) on the simulated substrate: it runs the distributed
// training harness once per (design, step-budget) configuration, caches
// results, and prints rows/series in the paper's layout.
package experiments

import "threelc/internal/train"

// The compared designs of §5.1, in Table 1's row order, resolved through
// train.ParseDesign so every design carries the name the CLIs give it.
var (
	DesignFloat32  = design("float32", 0, false)
	DesignInt8     = design("int8", 0, false)
	DesignStoch3   = design("stoch3", 0, false)
	DesignMQE1bit  = design("mqe1bit", 0, false)
	DesignSparse25 = design("sparse25", 0, false)
	DesignSparse5  = design("sparse5", 0, false)
	DesignLocal2   = design("local2", 0, false)
)

// ThreeLC returns the full 3LC design with sparsity multiplier s.
func ThreeLC(s float64) train.Design { return design("3lc", s, false) }

// ThreeLCNoZRE returns 3LC without zero-run encoding (Table 2's "No ZRE").
func ThreeLCNoZRE(s float64) train.Design { return design("3lc", s, true) }

// design resolves a design name the package spells itself; an error is a
// programming error.
func design(name string, sparsity float64, noZRE bool) train.Design {
	d, err := train.ParseDesign(name, sparsity, noZRE)
	if err != nil {
		panic(err)
	}
	return d
}

// Table1Designs is the full row set of Table 1.
func Table1Designs() []train.Design {
	return []train.Design{
		DesignFloat32,
		DesignInt8,
		DesignStoch3,
		DesignMQE1bit,
		DesignSparse25,
		DesignSparse5,
		DesignLocal2,
		ThreeLC(1.00),
		ThreeLC(1.50),
		ThreeLC(1.75),
		ThreeLC(1.90),
	}
}

// OverviewDesigns is the 9-design set of Figures 4-6 (a).
func OverviewDesigns() []train.Design {
	return []train.Design{
		DesignFloat32,
		DesignInt8,
		DesignStoch3,
		DesignMQE1bit,
		DesignSparse25,
		DesignSparse5,
		DesignLocal2,
		ThreeLC(1.00),
		ThreeLC(1.75),
	}
}

// Figure7Designs is the 5-design detail set of Figure 7.
func Figure7Designs() []train.Design {
	return []train.Design{
		DesignFloat32,
		DesignMQE1bit,
		DesignSparse5,
		DesignLocal2,
		ThreeLC(1.00),
	}
}
