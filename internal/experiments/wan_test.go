package experiments

import (
	"bytes"
	"strings"
	"testing"

	"threelc/internal/netsim"
)

func TestWANSweepShape(t *testing.T) {
	rows, err := WANSweep(WANDesigns()[:2], WANTopologies(2), 4, 4, netsim.Mbps100, 20e-3, nil)
	if err != nil {
		t.Fatal(err)
	}
	topos := WANTopologies(2)
	if len(rows) != 2*len(topos) {
		t.Fatalf("got %d rows, want %d", len(rows), 2*len(topos))
	}
	byTopo := map[string]WANRow{}
	for _, r := range rows[:len(topos)] { // first design's block
		byTopo[r.Topology] = r
	}
	flat := byTopo["flat"]
	if flat.WANKBPerStep != 0 || flat.WANReduction != 0 || flat.Regions != 1 {
		t.Errorf("flat row carries WAN traffic: %+v", flat)
	}
	exact := byTopo["hier/exact"]
	if exact.WANKBPerStep <= 0 {
		t.Errorf("exact relay moved no WAN bytes: %+v", exact)
	}
	if exact.WANReduction != 1 {
		t.Errorf("exact relay reduction %v, want 1.0 (its own baseline)", exact.WANReduction)
	}
	// The exact topology is bit-identical to flat; recompress forwards
	// one stream per region and must shrink the slow link.
	if exact.Accuracy != flat.Accuracy {
		t.Errorf("exact relay accuracy %v differs from flat %v", exact.Accuracy, flat.Accuracy)
	}
	recomp := byTopo["hier/recomp"]
	if recomp.WANKBPerStep >= exact.WANKBPerStep {
		t.Errorf("recompress WAN %v KB/step not below exact %v", recomp.WANKBPerStep, exact.WANKBPerStep)
	}
	if recomp.WANReduction <= 1 {
		t.Errorf("recompress reduction %v not above 1", recomp.WANReduction)
	}
	// The hierarchical step pays the slow link the flat topology never
	// crosses.
	if exact.StepMs <= flat.StepMs {
		t.Errorf("hierarchical step %v ms not above flat %v ms", exact.StepMs, flat.StepMs)
	}

	var buf bytes.Buffer
	PrintWANSweep(&buf, rows, netsim.Mbps100, 20e-3)
	if !strings.Contains(buf.String(), "hier/recomp") {
		t.Error("printed table missing topology rows")
	}
	buf.Reset()
	if err := WriteWANSweepCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "\n"); got != len(rows)+1 {
		t.Errorf("CSV has %d lines, want %d", got, len(rows)+1)
	}
}
