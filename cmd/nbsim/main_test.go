package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

func simRun(t *testing.T, args ...interface{}) (string, error) {
	t.Helper()
	var buf bytes.Buffer
	err := run(&buf,
		args[0].(string),  // topo
		args[1].(int),     // n
		args[2].(int),     // m
		args[3].(int),     // r
		args[4].(int),     // ports
		args[5].(int),     // levels
		args[6].(string),  // scheme
		args[7].(int),     // sprayWidth
		args[8].(string),  // pattern
		args[9].(int),     // trials
		int64(1),          // seed
		2,                 // flits
		4,                 // pkts
		args[10].(string), // arbiter
		false,             // openloop
		0,                 // workers
		false,             // jsonOut
	)
	return buf.String(), err
}

func TestSimOpenLoopSweep(t *testing.T) {
	var buf bytes.Buffer
	for _, workers := range []int{1, 0} {
		buf.Reset()
		err := run(&buf, "ftree", 2, 0, 5, 20, 2, "paper", 0,
			"random", 3, int64(1), 2, 4, "round-robin", true, workers, false)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !strings.Contains(buf.String(), "open-loop sweep") {
			t.Fatalf("workers=%d output: %s", workers, buf.String())
		}
	}
}

func TestSimRandomPaper(t *testing.T) {
	out, err := simRun(t, "ftree", 2, 0, 5, 20, 2, "paper", 0, "random", 3, "round-robin")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "slowdown vs crossbar") {
		t.Fatalf("output: %s", out)
	}
}

func TestSimStructuredPatterns(t *testing.T) {
	for _, pattern := range []string{"shift", "rotate"} {
		out, err := simRun(t, "ftree", 2, 0, 5, 20, 2, "dest-mod", 0, pattern, 3, "oldest-first")
		if err != nil {
			t.Fatalf("%s: %v", pattern, err)
		}
		if !strings.Contains(out, "makespan:") {
			t.Fatalf("%s output: %s", pattern, out)
		}
	}
	// Transpose needs a square host count: ftree(2+4,8) has 16 hosts.
	out, err := simRun(t, "ftree", 2, 0, 8, 20, 2, "paper", 0, "transpose", 3, "round-robin")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "contended links: 0") {
		t.Fatalf("nonblocking transpose should be clean: %s", out)
	}
}

func TestSimOtherRouters(t *testing.T) {
	if _, err := simRun(t, "ftree", 2, 12, 4, 20, 2, "adaptive", 0, "shift", 3, "round-robin"); err != nil {
		t.Fatal(err)
	}
	if _, err := simRun(t, "ftree", 2, 0, 5, 20, 2, "global", 0, "shift", 3, "round-robin"); err != nil {
		t.Fatal(err)
	}
	if _, err := simRun(t, "ftree", 2, 0, 5, 20, 2, "spray", 2, "shift", 3, "round-robin"); err != nil {
		t.Fatal(err)
	}
	if _, err := simRun(t, "ftree", 2, 0, 5, 20, 2, "spray", 0, "shift", 3, "round-robin"); err != nil {
		t.Fatal(err)
	}
	if _, err := simRun(t, "mnt", 2, 0, 5, 6, 2, "mnt-dest-mod", 0, "shift", 3, "round-robin"); err != nil {
		t.Fatal(err)
	}
	if _, err := simRun(t, "mnt", 2, 0, 5, 6, 2, "mnt-random", 0, "random", 2, "round-robin"); err != nil {
		t.Fatal(err)
	}
}

func TestSimErrors(t *testing.T) {
	if _, err := simRun(t, "ftree", 2, 0, 5, 20, 2, "paper", 0, "random", 3, "bogus"); err == nil {
		t.Fatal("bad arbiter accepted")
	}
	if _, err := simRun(t, "torus", 2, 0, 5, 20, 2, "paper", 0, "random", 3, "round-robin"); err == nil {
		t.Fatal("bad topology accepted")
	}
	if _, err := simRun(t, "ftree", 2, 0, 5, 20, 2, "mnt-dest-mod", 0, "random", 3, "round-robin"); err == nil {
		t.Fatal("mnt routing on ftree accepted")
	}
	if _, err := simRun(t, "mnt", 2, 0, 5, 6, 2, "paper", 0, "random", 3, "round-robin"); err == nil {
		t.Fatal("ftree routing on mnt accepted")
	}
	if _, err := simRun(t, "ftree", 2, 0, 5, 20, 2, "paper", 0, "nosuch", 3, "round-robin"); err == nil {
		t.Fatal("bad pattern accepted")
	}
	if _, err := simRun(t, "ftree", 2, 0, 5, 20, 2, "paper", 0, "transpose", 3, "round-robin"); err == nil {
		t.Fatal("non-square transpose accepted")
	}
	if _, err := simRun(t, "mnt", 2, 0, 5, 6, 2, "mnt-dest-mod", 0, "rotate", 3, "round-robin"); err == nil {
		t.Fatal("rotate on mnt accepted")
	}
	if _, err := simRun(t, "ftree", 2, 3, 5, 20, 2, "paper", 0, "random", 3, "round-robin"); err == nil {
		t.Fatal("paper with m<n² accepted")
	}
	// A random-pattern run needs a trial: zero or negative counts fail
	// instead of printing an all-zero slowdown summary.
	for _, trials := range []int{0, -2} {
		out, err := simRun(t, "ftree", 2, 0, 3, 20, 2, "paper", 0, "random", trials, "round-robin")
		if err == nil || !strings.Contains(err.Error(), "-trials") || out != "" {
			t.Fatalf("-trials %d: err %v, output %q; want a -trials error and no output", trials, err, out)
		}
	}
}

func TestSimJSONRoundTrip(t *testing.T) {
	// -json output must parse back through encoding/json into the same
	// schema, carry metrics, and satisfy the empirical Lemma-1 signature
	// for the nonblocking paper routing: zero wait beyond the injection
	// stage and every link utilization at most 1.
	var buf bytes.Buffer
	err := run(&buf, "ftree", 2, 0, 5, 20, 2, "paper", 0,
		"shift", 3, int64(1), 2, 4, "round-robin", false, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	var rep simReport
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if rep.Mode != "closed-loop" || rep.Closed == nil || rep.Closed.Metrics == nil {
		t.Fatalf("unexpected report shape: %+v", rep)
	}
	m := rep.Closed.Metrics
	if rep.Closed.ContendedLinks != 0 {
		t.Fatalf("paper routing contended on %d links", rep.Closed.ContendedLinks)
	}
	for _, s := range []int{sim.StageUp, sim.StageDown, sim.StageDrain} {
		if m.Stages[s].Wait != 0 {
			t.Errorf("nonblocking routing: stage %s wait %d, want 0", sim.StageName(s), m.Stages[s].Wait)
		}
	}
	for l := range m.Links {
		if u := m.Utilization(topology.LinkID(l)); u > 1 {
			t.Errorf("link %d utilization %v > 1", l, u)
		}
	}
	// Re-encoding the parsed report must reproduce the emitted bytes:
	// the schema round-trips losslessly.
	re, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.TrimSpace(string(re)), strings.TrimSpace(buf.String()); got != want {
		t.Error("re-encoded JSON differs from emitted JSON")
	}
}

func TestSimJSONOpenLoopAndTrials(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "ftree", 2, 0, 5, 20, 2, "paper", 0,
		"random", 3, int64(1), 2, 4, "round-robin", true, 1, true); err != nil {
		t.Fatal(err)
	}
	var rep simReport
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("open-loop JSON invalid: %v", err)
	}
	if rep.Mode != "open-loop" || len(rep.Sweep) != 5 {
		t.Fatalf("unexpected open-loop report: %+v", rep)
	}
	// Pin the documented wire names (Go-side round trips would pass even
	// without tags, so check the raw bytes).
	for _, key := range []string{`"offered_load"`, `"accepted_load"`, `"p99_latency"`} {
		if !strings.Contains(buf.String(), key) {
			t.Errorf("sweep JSON missing %s", key)
		}
	}
	for i, pt := range rep.Sweep {
		if pt.Metrics == nil {
			t.Fatalf("sweep point %d carries no metrics", i)
		}
	}

	buf.Reset()
	if err := run(&buf, "ftree", 2, 0, 5, 20, 2, "paper", 0,
		"random", 3, int64(1), 2, 4, "round-robin", false, 0, true); err != nil {
		t.Fatal(err)
	}
	rep = simReport{}
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("trials JSON invalid: %v", err)
	}
	if rep.Mode != "random-trials" || rep.Trials == nil || rep.Trials.Patterns != 3 {
		t.Fatalf("unexpected trials report: %+v", rep)
	}
	for _, key := range []string{`"patterns"`, `"mean_slowdown"`, `"median_slowdown"`} {
		if !strings.Contains(buf.String(), key) {
			t.Errorf("trials JSON missing %s", key)
		}
	}
}
