package kernel

// Maxima returns the block maxima x records, for the external tests that
// hold a record taken elsewhere to one MaxAbs takes.
func (x *Blocks) Maxima() []float32 { return x.max }
