package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"

	"threelc/internal/kernel"
)

// commit is the source revision, set by run.sh at link time.
var commit = "unknown"

// hostInfo is the metadata a number needs to be compared with another.
type hostInfo struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	KernelTier string `json:"kernel_tier"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func host() hostInfo {
	h := hostInfo{
		CPU:        "unknown",
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		KernelTier: kernel.ActiveTier().String(),
		GoVersion:  runtime.Version(),
		Commit:     commit,
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				h.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return h
}

// hostClock is the guest kernel's CPU accounting summed over every CPU, in
// clock ticks: all time, and the part of it the hypervisor spent running
// someone else while this guest had work to do.
type hostClock struct {
	total, steal int64
}

// readHostClock reads /proc/stat. Where there is none the clock stays zero
// and no time is ever counted as stolen.
func readHostClock() hostClock {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return hostClock{}
	}
	defer f.Close()
	// cpu user nice system idle iowait irq softirq steal guest guest_nice
	var v [8]int64
	if _, err := fmt.Fscanf(f, "cpu %d %d %d %d %d %d %d %d", &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]); err != nil {
		return hostClock{}
	}
	var c hostClock
	for _, t := range v {
		c.total += t
	}
	c.steal = v[7]
	return c
}

// stolenShare is the mean share of each CPU's time between a and b that
// the hypervisor spent elsewhere while this guest had work to do.
func stolenShare(a, b hostClock) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}
