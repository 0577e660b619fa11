package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunRefusesOutOfRangeFlags: an element count under 1 and, for 3LC, a
// sparsity multiplier outside [1, 2) are refused with one line on stderr
// and exit status 2 — not a panic in the tensor or codec constructors, and
// not a report of +Inf bits/elem.
func TestRunRefusesOutOfRangeFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-n", "-5"},
		{"-n", "0"},
		{"-n", "8", "-sparsity", "2"},
		{"-n", "8", "-sparsity", "0.5"},
		{"-n", "8", "-sparsity", "NaN"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit status %d, want 2", args, code)
		}
		if lines := strings.Count(stderr.String(), "\n"); lines != 1 || !strings.HasPrefix(stderr.String(), "3lc-compress: ") {
			t.Errorf("%v: stderr %q, want one line naming the command", args, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed %q before refusing", args, stdout.String())
		}
	}
}

// TestRunAcceptsEdgesOfTheRange: the smallest tensor and both ends of the
// sparsity range that are in it run every round; -sparsity binds 3LC only.
func TestRunAcceptsEdgesOfTheRange(t *testing.T) {
	for _, args := range [][]string{
		{"-n", "1", "-rounds", "2"},
		{"-n", "64", "-sparsity", "1", "-rounds", "1"},
		{"-n", "64", "-sparsity", "1.999", "-rounds", "1"},
		{"-n", "64", "-scheme", "int8", "-sparsity", "2", "-rounds", "1"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit status %d, stderr %q", args, code, stderr.String())
		}
		if out := stdout.String(); strings.Contains(out, "Inf") || strings.Contains(out, "NaN") || !strings.Contains(out, "round 1:") {
			t.Errorf("%v: printed %q", args, out)
		}
	}
}
