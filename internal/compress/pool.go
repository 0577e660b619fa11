package compress

import "sync"

// Compression contexts own their steady-state buffers (they recycle the
// caller's dst slice and context-held scratch). The ternary decoder's old
// zero-run expansion scratch is gone entirely — the fused kernel decoder
// streams wire bytes straight into the destination tensor, pooling only
// its per-M scaled LUT (see internal/kernel).

// scratchPool recycles float32 scratch for the decode-then-add fallback
// of DecompressAddInto (schemes without a fused add-decoder), so even the
// fallback aggregation path allocates nothing in steady state.
var scratchPool = sync.Pool{New: func() any { return new([]float32) }}
