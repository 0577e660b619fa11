package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// span is one timed interval at a layer boundary, recorded from the
// benchmark's own files around the call into the layer. Start and End are
// nanoseconds since the pass began; Parent indexes the trace's span list
// (-1 for a step's root span). Spans of one step share Step and Worker.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Step   int    `json:"step"`
	Worker int    `json:"worker"`
	Self   int64  `json:"self_ns"`
}

// trace keeps spans in memory until the pass ends; nothing is written or
// formatted while steps are being timed.
type trace struct {
	spans []span
}

func (t *trace) add(name string, start, end int64, parent, step, worker int) int {
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: parent, Step: step, Worker: worker})
	return len(t.spans) - 1
}

// selfTimes fills every span's Self: its duration minus the part of its
// interval that its child spans cover. Children may overlap each other
// (the streamed pipeline encodes while it pushes), so the covered part is
// the union of the children's intervals clipped to the parent.
func selfTimes(spans []span) {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i := range spans {
		p := &spans[i]
		var iv [][2]int64
		for _, c := range children[i] {
			iv = append(iv, [2]int64{spans[c].Start, spans[c].End})
		}
		p.Self = (p.End - p.Start) - covered(iv, p.Start, p.End)
	}
}

// covered returns the length of the union of the intervals, clipped to
// [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	edge := lo
	for _, x := range iv {
		a, b := x[0], x[1]
		if a < edge {
			a = edge
		}
		if b > hi {
			b = hi
		}
		if b > a {
			total += b - a
			edge = b
		}
	}
	return total
}

// writeTrace writes the spans as one JSON document.
func writeTrace(path string, workload string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	return nil
}
