package topology

import (
	"fmt"
	"strings"
	"testing"
)

func TestFailureSetNormalizeAndKey(t *testing.T) {
	f := NewFoldedClos(2, 4, 3)
	a := FailureSet{
		Tops:    []int{3, 1, 3},
		Bottoms: []int{2, 2},
		Trunks: []Trunk{
			{Bottom: 0, Top: 2},
			{Bottom: 0, Top: 2}, // duplicate
			{Bottom: 2, Top: 0}, // implied by failed bottom 2
			{Bottom: 1, Top: 3}, // implied by failed top 3
		},
	}
	b := FailureSet{
		Tops:    []int{1, 3},
		Bottoms: []int{2},
		Trunks:  []Trunk{{Bottom: 0, Top: 2}},
	}
	if got, want := a.Key(), b.Key(); got != want {
		t.Fatalf("keys differ: %q vs %q", got, want)
	}
	a.Normalize()
	if len(a.Tops) != 2 || len(a.Bottoms) != 1 || len(a.Trunks) != 1 {
		t.Fatalf("normalize: got %+v", a)
	}
	if a.Count() != 4 {
		t.Fatalf("count: got %d, want 4", a.Count())
	}
	if err := a.Validate(f); err != nil {
		t.Fatalf("validate: %v", err)
	}
	bad := FailureSet{Tops: []int{4}}
	if err := bad.Validate(f); err == nil {
		t.Fatal("expected range error for top 4 of m=4")
	}
	if (&FailureSet{}).Key() != "t;b;l" {
		t.Fatalf("empty key: %q", (&FailureSet{}).Key())
	}
}

func TestFailureViewLookups(t *testing.T) {
	f := NewFoldedClos(2, 4, 3)
	fs := FailureSet{
		Tops:    []int{1},
		Bottoms: []int{2},
		Trunks:  []Trunk{{Bottom: 0, Top: 3}},
	}
	v, err := fs.View(f)
	if err != nil {
		t.Fatal(err)
	}
	if !v.TopFailed(1) || v.TopFailed(0) {
		t.Fatal("TopFailed wrong")
	}
	if !v.BottomFailed(2) || v.BottomFailed(0) {
		t.Fatal("BottomFailed wrong")
	}
	// Trunk health subsumes switch health.
	for b := 0; b < f.R; b++ {
		if !v.TrunkFailed(b, 1) {
			t.Fatalf("trunk (%d,1) should fail with top 1", b)
		}
		if !v.TrunkFailed(2, b%f.M) {
			t.Fatal("trunks of bottom 2 should fail with it")
		}
	}
	if !v.TrunkFailed(0, 3) || v.TrunkFailed(1, 3) {
		t.Fatal("cable failure misplaced")
	}
	// TopIntact: 1 failed; 3 has a failed cable to alive bottom 0; 0 and
	// 2 only lose trunks to dead bottom 2, which no surviving pair can
	// use, so they stay intact.
	if got := v.IntactTops(); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("IntactTops: %v", got)
	}

	if v.HostAlive(4) || v.HostAlive(5) {
		t.Fatal("hosts of bottom 2 should be detached")
	}
	alive := v.AliveHosts()
	if len(alive) != 4 {
		t.Fatalf("alive hosts: %v", alive)
	}
	// Paths through failed elements are unhealthy.
	if v.PathHealthy(f.RouteVia(f.HostID(0, 0), f.HostID(1, 0), 1)) {
		t.Fatal("path via failed top 1 should be unhealthy")
	}
	if v.PathHealthy(f.RouteVia(f.HostID(0, 0), f.HostID(1, 0), 3)) {
		t.Fatal("path over failed cable (0,3) should be unhealthy")
	}
	if !v.PathHealthy(f.RouteVia(f.HostID(0, 0), f.HostID(1, 0), 0)) {
		t.Fatal("path via healthy top 0 should be healthy")
	}
	if v.PathHealthy(f.RouteVia(f.HostID(2, 0), f.HostID(0, 0), 0)) {
		t.Fatal("path from a detached host should be unhealthy")
	}

	if !v.LinkFailed(f.HostUpLink(2, 1)) || v.LinkFailed(f.HostUpLink(1, 1)) {
		t.Fatal("host-link health wrong")
	}
	if !v.NodeFailed(f.Top(1)) || v.NodeFailed(f.Top(0)) || !v.NodeFailed(f.Bottom(2)) || !v.NodeFailed(f.HostID(2, 0)) {
		t.Fatal("NodeFailed wrong")
	}
}

// Test-only helpers: no program calls these, so they live with the
// tests that use them.

// Count reports the number of failed elements after normalization
// (duplicates and implied trunks are not counted twice).
func (fs *FailureSet) Count() int {
	n := fs.normalized()
	return len(n.Tops) + len(n.Bottoms) + len(n.Trunks)
}

// Key returns a canonical string for the normalized set, suitable for
// cache keys: equal damage ⇒ equal key.
func (fs *FailureSet) Key() string {
	n := fs.normalized()
	var b strings.Builder
	b.WriteByte('t')
	for i, t := range n.Tops {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", t)
	}
	b.WriteString(";b")
	for i, v := range n.Bottoms {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", v)
	}
	b.WriteString(";l")
	for i, tr := range n.Trunks {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d-%d", tr.Bottom, tr.Top)
	}
	return b.String()
}

// TopFailed reports whether top switch t failed.
func (v *FailureView) TopFailed(t int) bool { return v.topDown[t] }

// BottomFailed reports whether bottom switch b failed.
func (v *FailureView) BottomFailed(b int) bool { return v.bottomDown[b] }
