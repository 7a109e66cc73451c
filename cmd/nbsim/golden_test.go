package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the testdata golden files from the current output")

// goldenCase is one nbsim invocation pinned byte for byte in
// testdata/<name>.golden.
type goldenCase struct {
	name       string
	topo       string
	n, m, r    int
	ports      int
	levels     int
	scheme     string
	sprayWidth int
	pattern    string
	trials     int
	arbiter    string
	openloop   bool
	workers    int
	jsonOut    bool
}

var goldenCases = []goldenCase{
	{name: "ftree_paper_shift", topo: "ftree", n: 2, r: 5, scheme: "paper", pattern: "shift", trials: 10, arbiter: "round-robin"},
	{name: "ftree_paper_shift_json", topo: "ftree", n: 2, r: 5, scheme: "paper", pattern: "shift", trials: 10, arbiter: "round-robin", jsonOut: true},
	{name: "ftree_destmod_rotate", topo: "ftree", n: 2, r: 5, scheme: "dest-mod", pattern: "rotate", trials: 10, arbiter: "oldest-first"},
	{name: "ftree_destmod_rotate_json", topo: "ftree", n: 2, r: 5, scheme: "dest-mod", pattern: "rotate", trials: 10, arbiter: "oldest-first", jsonOut: true},
	{name: "ftree_destmod_transpose", topo: "ftree", n: 2, m: 2, r: 8, scheme: "dest-mod", pattern: "transpose", trials: 10, arbiter: "oldest-first"},
	{name: "ftree_global_transpose_json", topo: "ftree", n: 2, r: 8, scheme: "global", pattern: "transpose", trials: 10, arbiter: "oldest-first", jsonOut: true},
	{name: "ftree_paper_openloop", topo: "ftree", n: 2, r: 5, scheme: "paper", pattern: "random", trials: 10, arbiter: "round-robin", openloop: true},
	{name: "ftree_destmod_openloop_json", topo: "ftree", n: 2, r: 4, scheme: "dest-mod", pattern: "random", trials: 10, arbiter: "oldest-first", openloop: true, jsonOut: true},
	{name: "ftree_paper_random", topo: "ftree", n: 2, r: 5, scheme: "paper", pattern: "random", trials: 3, arbiter: "round-robin", workers: 1},
	{name: "ftree_spray_random_json", topo: "ftree", n: 2, m: 3, r: 4, scheme: "spray", sprayWidth: 2, pattern: "random", trials: 3, arbiter: "oldest-first", jsonOut: true},
	{name: "mnt_destmod_shift", topo: "mnt", n: 4, r: 20, ports: 6, levels: 2, scheme: "mnt-dest-mod", pattern: "shift", trials: 10, arbiter: "round-robin"},
	{name: "mnt_random_shift_json", topo: "mnt", n: 4, r: 20, ports: 6, levels: 2, scheme: "mnt-random", pattern: "shift", trials: 10, arbiter: "oldest-first", jsonOut: true},
	{name: "mnt_random_random", topo: "mnt", n: 4, r: 20, ports: 4, levels: 2, scheme: "mnt-random", pattern: "random", trials: 2, arbiter: "oldest-first"},
	{name: "mnt_destmod_random_json", topo: "mnt", n: 4, r: 20, ports: 4, levels: 2, scheme: "mnt-dest-mod", pattern: "random", trials: 2, arbiter: "round-robin", jsonOut: true},
}

// TestGolden diffs run's text and -json output against the committed
// testdata files: closed-loop (shift, rotate, transpose), -openloop and
// random trials on ftree and mnt with both arbiters. Refresh with
// `go test ./cmd/nbsim -run TestGolden -update` only when a change to the
// output is intended.
func TestGolden(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := run(&buf, tc.topo, tc.n, tc.m, tc.r, tc.ports, tc.levels, tc.scheme, tc.sprayWidth,
				tc.pattern, tc.trials, 1, 2, 4, tc.arbiter, tc.openloop, tc.workers, tc.jsonOut); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("output differs from %s:\n got:\n%s\nwant:\n%s", path, buf.Bytes(), want)
			}
		})
	}
}
