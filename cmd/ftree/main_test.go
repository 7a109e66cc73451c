package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunSummaries(t *testing.T) {
	type cfg struct {
		topo                   string
		n, m, r, k, ports, lvl int
		want                   string
	}
	for _, c := range []cfg{
		{"ftree", 2, 4, 5, 2, 8, 2, "ftree(2+4,5): 10 hosts, 9 switches"},
		{"nonblocking", 4, 0, 20, 2, 8, 2, "ftree(4+16,20)"},
		{"mnt", 2, 4, 5, 2, 20, 2, "FT(20,2): 200 hosts, 30 switches"},
		{"kary", 2, 4, 5, 3, 8, 2, "3-ary 2-tree: 9 hosts, 6 switches"},
		{"clos", 3, 5, 4, 2, 8, 2, "Clos(3,5,4): 12 ports, strict-sense nonblocking iff m ≥ 2n−1 (true)"},
		{"three-level", 2, 4, 0, 2, 8, 2, "ftree3(n=2): 24 hosts, 52 switches"},
		{"three-level", 2, 4, 12, 2, 8, 2, "ftree3(n=2): 24 hosts, 52 switches"},
		{"crossbar", 2, 4, 5, 2, 16, 2, "crossbar(16): 16 hosts, 1 switch"},
	} {
		var buf bytes.Buffer
		m := c.m
		if c.topo == "nonblocking" {
			m = 0
		}
		if err := run(&buf, c.topo, c.n, m, c.r, c.k, c.ports, c.lvl, false); err != nil {
			t.Errorf("%s: %v", c.topo, err)
			continue
		}
		if !strings.Contains(buf.String(), c.want) {
			t.Errorf("%s: output %q missing %q", c.topo, buf.String(), c.want)
		}
		// The unidirectional Clos is not strongly connected (traffic
		// flows one way); every folded topology is.
		wantConn := "strongly connected: true"
		if c.topo == "clos" {
			wantConn = "strongly connected: false"
		}
		if !strings.Contains(buf.String(), wantConn) {
			t.Errorf("%s: connectivity line missing or wrong", c.topo)
		}
	}
}

func TestRunDOT(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "ftree", 2, 2, 2, 2, 8, 2, true); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "graph \"ftree(2+2,2)\"") {
		t.Fatalf("DOT output wrong: %s", buf.String())
	}
}

func TestRunUnknownTopology(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "torus", 2, 2, 2, 2, 8, 2, false); err == nil {
		t.Fatal("unknown topology accepted")
	}
}

func TestRunNewTopologies(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "multi", 2, 0, 0, 2, 8, 3, false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "ftree3(n=2): 24 hosts, 52 switches") {
		t.Fatalf("multi output: %s", buf.String())
	}
	buf.Reset()
	if err := run(&buf, "benes", 2, 0, 0, 3, 8, 2, false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "benes(8): 8 terminals, 5 stages") {
		t.Fatalf("benes output: %s", buf.String())
	}
}

func TestRunThreeLevelRejectsNonCanonicalR(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "three-level", 2, 4, 5, 2, 8, 2, false); err == nil || !strings.Contains(err.Error(), "n³+n² = 12") {
		t.Fatalf("three-level -r 5: err %v", err)
	}
}
