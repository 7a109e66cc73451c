package routing

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/permutation"
	"repro/internal/topology"
)

// The shared assemble helper must make AvoidingAdaptive with no failures
// byte-identical to the healthy Route.
func TestRouteAvoidingNoFailuresMatchesRoute(t *testing.T) {
	f := topology.NewFoldedClos(3, 9, 9)
	ad, err := NewNonblockingAdaptive(f)
	if err != nil {
		t.Fatal(err)
	}
	none, err := topology.FailureSet{}.View(f)
	if err != nil {
		t.Fatal(err)
	}
	av, err := NewAvoidingAdaptive(f, none)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		p := permutation.Random(rng, f.Ports())
		a, err := ad.Route(p)
		if err != nil {
			t.Fatal(err)
		}
		b, err := av.Route(p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.PathSets, b.PathSets) {
			t.Fatalf("trial %d: AvoidingAdaptive(∅) diverged from Route", trial)
		}
	}
}

// The spared constructor's error must report the healthy spare count, not
// the provisioned one, when spares are themselves failed.
func TestSparedErrorReportsHealthySpares(t *testing.T) {
	n := 2
	f := topology.NewFoldedClos(n, n*n+2, 4) // 2 provisioned spares: 4, 5
	// Fail one spare and two class switches: 1 healthy spare < 2 classes.
	failed, err := topology.FailureSet{Tops: []int{0, 1, 5}}.View(f)
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewSparedDeterministicView(f, failed)
	if err == nil {
		t.Fatal("expected spare exhaustion error")
	}
	if !strings.Contains(err.Error(), "1 healthy spare") {
		t.Fatalf("error should name the 1 healthy spare, got: %v", err)
	}
	if !strings.Contains(err.Error(), "2 provisioned") {
		t.Fatalf("error should name the 2 provisioned spares, got: %v", err)
	}
}

func TestLocalRerouteHealthyMatchesDeterministic(t *testing.T) {
	f := topology.NewFoldedClos(2, 4, 4)
	lr := NewLocalReroute(f, nil, 1)
	det, err := NewPaperDeterministic(f)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < f.Ports(); s++ {
		for d := 0; d < f.Ports(); d++ {
			a, err := lr.PathFor(s, d)
			if err != nil {
				t.Fatalf("PathFor(%d,%d): %v", s, d, err)
			}
			b, _ := det.PathFor(s, d)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("pair (%d,%d): healthy local reroute diverged from Theorem-3 path", s, d)
			}
		}
	}
}

func TestLocalRerouteDeterministicAndHealthyPaths(t *testing.T) {
	f := topology.NewFoldedClos(2, 4, 4)
	fs := topology.FailureSet{
		Tops:   []int{0},
		Trunks: []topology.Trunk{{Bottom: 1, Top: 2}, {Bottom: 3, Top: 1}},
	}
	view, err := fs.View(f)
	if err != nil {
		t.Fatal(err)
	}
	lr := NewLocalReroute(f, view, 42)
	lr2 := NewLocalReroute(f, view, 42)
	for s := 0; s < f.Ports(); s++ {
		for d := 0; d < f.Ports(); d++ {
			p1, err1 := lr.PathFor(s, d)
			p2, err2 := lr2.PathFor(s, d)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("pair (%d,%d): nondeterministic error", s, d)
			}
			if err1 != nil {
				continue
			}
			if !reflect.DeepEqual(p1, p2) {
				t.Fatalf("pair (%d,%d): nondeterministic path", s, d)
			}
			if !p1.Valid(f.Net) {
				t.Fatalf("pair (%d,%d): invalid path %v", s, d, p1)
			}
			if !view.PathHealthy(p1) {
				t.Fatalf("pair (%d,%d): path traverses a failed element: %v", s, d, p1)
			}
		}
	}
}

func TestLocalRerouteRejectsDetachedHosts(t *testing.T) {
	f := topology.NewFoldedClos(2, 4, 4)
	view, err := topology.FailureSet{Bottoms: []int{1}}.View(f)
	if err != nil {
		t.Fatal(err)
	}
	lr := NewLocalReroute(f, view, 1)
	if _, err := lr.PathFor(2, 0); err == nil {
		t.Fatal("expected error for detached source host")
	}
	if _, err := lr.PathFor(0, 3); err == nil {
		t.Fatal("expected error for detached destination host")
	}
	if _, err := lr.PathFor(0, 6); err != nil {
		t.Fatalf("alive pair should route: %v", err)
	}
}

func TestFaultViewRoutersRejectDetachedHosts(t *testing.T) {
	f := topology.NewFoldedClos(2, 6, 4) // m = n²+2 spares
	view, err := topology.FailureSet{Bottoms: []int{0}}.View(f)
	if err != nil {
		t.Fatal(err)
	}
	p := permutation.New(f.Ports())
	if err := p.Add(0, 5); err != nil { // host 0 is detached
		t.Fatal(err)
	}

	av, err := NewAvoidingAdaptive(f, view)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := av.Route(p); err == nil {
		t.Fatal("avoiding adaptive should reject detached pair")
	}
	sp, err := NewSparedDeterministicView(f, view)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.PathFor(0, 5); err == nil {
		t.Fatal("spared deterministic should reject detached pair")
	}
	nr, err := NewNaiveRemapView(f, view)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nr.PathFor(0, 5); err == nil {
		t.Fatal("naive remap should reject detached pair")
	}
}
