// Package data generates deterministic synthetic image-classification
// datasets standing in for CIFAR-10 (which cannot be downloaded in this
// offline environment). Each class is a smooth random template pattern;
// examples are the class template plus per-example Gaussian noise and
// random geometric jitter, so the task is learnable but not trivial, and
// gradient tensors during training have realistic statistics.
//
// The paper's data augmentation (random crop with padding + horizontal
// flip, §5.2) is reproduced in Augment.
package data

import (
	"fmt"

	"threelc/internal/tensor"
)

// Dataset is an in-memory labelled image set with CIFAR-like layout:
// images are [C, H, W] float32 in roughly [-1, 1].
type Dataset struct {
	Images  []*tensor.Tensor
	Labels  []int
	Classes int
	C, H, W int
}

// Config controls synthetic dataset generation.
type Config struct {
	Classes   int
	Train     int // number of training examples
	Test      int // number of test examples
	C, H, W   int
	NoiseStd  float64 // per-pixel Gaussian noise
	Seed      uint64
	Smoothing int // box-blur passes applied to class templates
}

// DefaultConfig mirrors CIFAR-10's shape at reduced resolution: 10
// classes, 3x16x16 images.
func DefaultConfig() Config {
	return Config{
		Classes:   10,
		Train:     2000,
		Test:      500,
		C:         3,
		H:         16,
		W:         16,
		NoiseStd:  1.8,
		Seed:      42,
		Smoothing: 2,
	}
}

// Synthetic generates a train/test pair from cfg. Generation is fully
// deterministic in cfg.Seed.
func Synthetic(cfg Config) (train, test *Dataset) {
	if cfg.Classes < 2 {
		panic("data: need at least 2 classes")
	}
	rng := tensor.NewRNG(cfg.Seed)

	templates := make([]*tensor.Tensor, cfg.Classes)
	for k := range templates {
		t := tensor.New(cfg.C, cfg.H, cfg.W)
		tensor.FillNormal(t, 1.0, rng)
		for p := 0; p < cfg.Smoothing; p++ {
			boxBlur(t, cfg.C, cfg.H, cfg.W)
		}
		normalize(t)
		templates[k] = t
	}

	gen := func(n int, r *tensor.RNG) *Dataset {
		ds := &Dataset{Classes: cfg.Classes, C: cfg.C, H: cfg.H, W: cfg.W}
		for i := 0; i < n; i++ {
			k := i % cfg.Classes // balanced classes
			img := templates[k].Clone()
			d := img.Data()
			for j := range d {
				d[j] += float32(r.Norm() * cfg.NoiseStd)
			}
			ds.Images = append(ds.Images, img)
			ds.Labels = append(ds.Labels, k)
		}
		// Shuffle so that strided worker shards are class-balanced (the
		// paper's workers sample IID from a shuffled CIFAR-10).
		perm := r.Perm(n)
		images := make([]*tensor.Tensor, n)
		labels := make([]int, n)
		for i, p := range perm {
			images[i] = ds.Images[p]
			labels[i] = ds.Labels[p]
		}
		ds.Images, ds.Labels = images, labels
		return ds
	}

	train = gen(cfg.Train, rng.Split())
	test = gen(cfg.Test, rng.Split())
	return train, test
}

func boxBlur(t *tensor.Tensor, c, h, w int) {
	d := t.Data()
	out := make([]float32, len(d))
	for ch := 0; ch < c; ch++ {
		base := ch * h * w
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				var s float32
				var n float32
				for dy := -1; dy <= 1; dy++ {
					for dx := -1; dx <= 1; dx++ {
						yy, xx := y+dy, x+dx
						if yy < 0 || yy >= h || xx < 0 || xx >= w {
							continue
						}
						s += d[base+yy*w+xx]
						n++
					}
				}
				out[base+y*w+x] = s / n
			}
		}
	}
	copy(d, out)
}

func normalize(t *tensor.Tensor) {
	m := t.MaxAbs()
	if m > 0 {
		t.Scale(1 / m)
	}
}

// Len returns the number of examples.
func (ds *Dataset) Len() int { return len(ds.Images) }

// Batch assembles examples at the given indices into one [N, C, H, W]
// tensor plus labels. If augment is non-nil it is applied per example.
func (ds *Dataset) Batch(idx []int, augment func(src, dst *tensor.Tensor, r *tensor.RNG), rng *tensor.RNG) (*tensor.Tensor, []int) {
	x := tensor.New(len(idx), ds.C, ds.H, ds.W)
	labels := make([]int, len(idx))
	var scratch *tensor.Tensor
	if augment != nil {
		scratch = tensor.New(ds.C, ds.H, ds.W)
	}
	per := ds.C * ds.H * ds.W
	xd := x.Data()
	for i, id := range idx {
		src := ds.example(id)
		if augment != nil {
			augment(src, scratch, rng)
			src = scratch
		}
		copy(xd[i*per:(i+1)*per], src.Data())
		labels[i] = ds.Labels[id]
	}
	return x, labels
}

// FlatBatch is Batch but reshaped to [N, C*H*W] for MLP models.
func (ds *Dataset) FlatBatch(idx []int, augment func(src, dst *tensor.Tensor, r *tensor.RNG), rng *tensor.RNG) (*tensor.Tensor, []int) {
	x, labels := ds.Batch(idx, augment, rng)
	n := x.Shape()[0]
	return x.Reshape(n, ds.C*ds.H*ds.W), labels
}

// BatchInto is Batch without augmentation into buffers the caller keeps
// across batches: x is re-viewed at [N, C, H, W], or at [N, C*H*W] when
// flat (tensor.Resize), and labels re-sliced to N, each grown only when idx
// needs more room than it has. It returns the labels.
func (ds *Dataset) BatchInto(x *tensor.Tensor, labels, idx []int, flat bool) []int {
	per := ds.C * ds.H * ds.W
	if flat {
		x.Resize(len(idx), per)
	} else {
		x.Resize(len(idx), ds.C, ds.H, ds.W)
	}
	if cap(labels) < len(idx) {
		labels = make([]int, len(idx))
	}
	labels = labels[:len(idx)]
	xd := x.Data()
	for i, id := range idx {
		copy(xd[i*per:(i+1)*per], ds.example(id).Data())
		labels[i] = ds.Labels[id]
	}
	return labels
}

// example returns example id's image, panicking on an index out of range.
func (ds *Dataset) example(id int) *tensor.Tensor {
	if id < 0 || id >= ds.Len() {
		panic(fmt.Sprintf("data: index %d out of range (%d examples)", id, ds.Len()))
	}
	return ds.Images[id]
}

// Augment reproduces the paper's standard CIFAR augmentation: pad by 2,
// random crop back to the original size, and random horizontal flip.
func Augment(src, dst *tensor.Tensor, r *tensor.RNG) {
	shape := src.Shape()
	c, h, w := shape[0], shape[1], shape[2]
	const pad = 2
	offY := r.Intn(2*pad+1) - pad
	offX := r.Intn(2*pad+1) - pad
	flip := r.Intn(2) == 1
	sd, dd := src.Data(), dst.Data()
	for ch := 0; ch < c; ch++ {
		base := ch * h * w
		for y := 0; y < h; y++ {
			sy := y + offY
			for x := 0; x < w; x++ {
				sx := x + offX
				var v float32
				if sy >= 0 && sy < h && sx >= 0 && sx < w {
					if flip {
						v = sd[base+sy*w+(w-1-sx)]
					} else {
						v = sd[base+sy*w+sx]
					}
				}
				dd[base+y*w+x] = v
			}
		}
	}
}
