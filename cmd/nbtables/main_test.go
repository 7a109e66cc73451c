package main

import (
	"bytes"
	"strings"
	"testing"
)

// runArgs runs nbtables with args and returns its exit status, stdout
// and stderr.
func runArgs(args ...string) (int, string, string) {
	var out, errOut bytes.Buffer
	code := run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

func TestRunNothingSelected(t *testing.T) {
	code, out, errOut := runArgs("-trials", "10", "-sim-n", "2")
	if code != 1 || out != "" || !strings.Contains(errOut, "no experiment selected") {
		t.Fatalf("exit %d, stdout %q, stderr %q; want exit 1 and a selection error", code, out, errOut)
	}
}

func TestRunSelectedSections(t *testing.T) {
	// Flags in reverse registry order: sections still print in registry
	// order.
	code, out, errOut := runArgs("-scaling", "-theorem1", "-theorem3", "-table1", "-trials", "5", "-sim-n", "2")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	want := []string{
		"T1: Table I",
		"E1: Theorem 3",
		"E3: Theorem 1",
		"Discussion: 2-level vs 3-level scaling",
	}
	last := -1
	for _, w := range want {
		i := strings.Index(out, w)
		if i < 0 {
			t.Errorf("missing section %q", w)
			continue
		}
		if i < last {
			t.Errorf("section %q out of registry order", w)
		}
		last = i
	}
	if strings.Contains(out, "E4:") {
		t.Error("unselected section rendered")
	}
}

func TestRunFastExperiments(t *testing.T) {
	// Exercise the cheap randomized sections with tiny trial counts.
	code, out, errOut := runArgs("-lemma2", "-multipath", "-benes", "-online", "-trials", "5", "-sim-n", "2")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	for _, want := range []string{"E2: Lemma 2", "E7:", "E9:", "E10:"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing section %q", want)
		}
	}
}

func TestRunRejectsInvalidParams(t *testing.T) {
	for _, args := range [][]string{
		{"-throughput", "-sim-n", "0"},
		{"-all", "-trials", "0"},
		{"-table1", "-trials", "-3"},
		{"-table1", "-no-such-flag"},
	} {
		code, out, errOut := runArgs(args...)
		if code != 2 || out != "" || !strings.Contains(errOut, "Usage") {
			t.Errorf("%q: exit %d, stdout %q, stderr %q; want exit 2, no output and a usage error", args, code, out, errOut)
		}
	}
}
