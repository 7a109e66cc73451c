package main

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

func verify(t *testing.T, n, m, r int, scheme, pattern string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := runCtx(context.Background(), &buf, n, m, r, scheme, 0, 50, 1, 8, false, false, true, pattern); err != nil {
		t.Fatalf("runCtx(%s): %v", scheme, err)
	}
	return buf.String()
}

func TestVerifyPaperNonblocking(t *testing.T) {
	out := verify(t, 2, 4, 5, "paper", "")
	if !strings.Contains(out, "verdict: NONBLOCKING (exact") {
		t.Fatalf("output: %s", out)
	}
}

func TestVerifyFoldedBlockingWithWitness(t *testing.T) {
	out := verify(t, 2, 3, 5, "paper-folded", "")
	if !strings.Contains(out, "verdict: BLOCKING (exact") {
		t.Fatalf("output: %s", out)
	}
	if !strings.Contains(out, "blocked permutation:") {
		t.Fatal("witness missing")
	}
	if !strings.Contains(out, "violated link:") {
		t.Fatal("verbose link detail missing")
	}
}

func TestVerifyBaselinesBlock(t *testing.T) {
	for _, scheme := range []string{"dest-mod", "source-mod", "dest-switch-mod", "random-fixed"} {
		out := verify(t, 2, 4, 5, scheme, "")
		if !strings.Contains(out, "BLOCKING") {
			t.Errorf("%s: expected blocking, got: %s", scheme, out)
		}
	}
}

func TestVerifyAdaptiveSweeps(t *testing.T) {
	// Tiny: exhaustive sweep.
	out := verify(t, 2, 12, 4, "adaptive", "")
	if !strings.Contains(out, "exhaustive patterns") {
		t.Fatalf("output: %s", out)
	}
	if !strings.Contains(out, "no blocking found") {
		t.Fatal("adaptive should pass")
	}
	// Bigger: randomized sweep.
	out = verify(t, 3, 36, 9, "adaptive", "")
	if !strings.Contains(out, "randomized+structured patterns") {
		t.Fatalf("output: %s", out)
	}
}

func TestVerifyGreedyLocalBlocksInSweep(t *testing.T) {
	out := verify(t, 2, 4, 5, "greedy-local", "")
	if !strings.Contains(out, "BLOCKING") {
		t.Fatalf("greedy-local should block: %s", out)
	}
}

func TestVerifyGlobalPasses(t *testing.T) {
	out := verify(t, 2, 2, 5, "global", "")
	if !strings.Contains(out, "no blocking found") {
		t.Fatalf("global m=n should pass sweeps: %s", out)
	}
}

func TestVerifyExplicitPattern(t *testing.T) {
	out := verify(t, 2, 4, 5, "paper", "0->4 2->5")
	if !strings.Contains(out, "contention-free") {
		t.Fatalf("output: %s", out)
	}
	out = verify(t, 2, 3, 5, "paper-folded", "0->2 1->3")
	if !strings.Contains(out, "CONTENTION") {
		t.Fatalf("output: %s", out)
	}
}

func TestVerifyErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := runCtx(context.Background(), &buf, 2, 4, 5, "nosuch", 0, 10, 1, 8, false, false, false, ""); err == nil {
		t.Fatal("unknown scheme accepted")
	}
	if err := runCtx(context.Background(), &buf, 2, 3, 5, "paper", 0, 10, 1, 8, false, false, false, ""); err == nil {
		t.Fatal("paper with m<n² should error")
	}
	if err := runCtx(context.Background(), &buf, 2, 4, 5, "paper", 0, 10, 1, 8, false, false, false, "bogus"); err == nil {
		t.Fatal("malformed pattern accepted")
	}
	if err := runCtx(context.Background(), &buf, 2, 1, 4, "adaptive", 0, 10, 1, 99, false, false, false, ""); err == nil {
		t.Fatal("adaptive m=1 sweep should surface route error")
	}
}

func TestVerifyFirstBlockedStopsEarly(t *testing.T) {
	// greedy-local on 2+4,5 blocks; first-blocked mode must stop at the
	// first contended pattern instead of sweeping all 10!.
	var buf bytes.Buffer
	if err := runCtx(context.Background(), &buf, 2, 4, 5, "greedy-local", 0, 50, 1, 10, true, false, false, ""); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "exhaustive (first-blocked) patterns") {
		t.Fatalf("output: %s", out)
	}
	if !strings.Contains(out, "BLOCKING — 1 of ") {
		t.Fatalf("expected exactly one blocked pattern before stopping: %s", out)
	}
	if !strings.Contains(out, "first blocked permutation:") {
		t.Fatalf("witness missing: %s", out)
	}
}
