package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestReportContainsEverySection(t *testing.T) {
	var buf, errOut bytes.Buffer
	if code := run([]string{"-trials", "10"}, &buf, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	out := buf.String()
	for _, want := range []string{
		"# Reproduction report",
		"T1 — Table I",
		"E1 — Theorems 2 & 3",
		"E2 — Lemma 2",
		"E3 — Theorem 1",
		"E4 — NONBLOCKINGADAPTIVE",
		"E6 — simulated permutation throughput",
		"E7 — oblivious multipath",
		"E8 — recursive constructions",
		"E9 — centralized rearrangeable",
		"E10 — online circuit switching",
		"E11 — degraded mode",
		"E12 — open-loop load sweep",
		"E13 — collectives",
		"E14 — randomized-routing birthday model",
		"E15 — oversubscription frontier",
		"E16 — in-network per-packet adaptivity",
		"E17 — exact worst-case link load",
		"E18 — observability",
		"stage injection",
		"busiest link:",
		"E20 — fault campaign",
		"Scaling — 2- vs 3-level cost",
		"generated in",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	// Markdown fencing is balanced.
	if strings.Count(out, "```")%2 != 0 {
		t.Error("unbalanced code fences")
	}
}

func TestReportRejectsInvalidTrials(t *testing.T) {
	for _, args := range [][]string{{"-trials", "-5"}, {"-trials", "0"}} {
		var out, errOut bytes.Buffer
		code := run(args, &out, &errOut)
		if code != 2 || out.Len() != 0 || !strings.Contains(errOut.String(), "-trials must be >= 1") {
			t.Errorf("%q: exit %d, stdout %q, stderr %q; want exit 2 before any output", args, code, out.String(), errOut.String())
		}
	}
}
