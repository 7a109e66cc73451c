package permutation

import (
	"math/rand"
	"testing"
)

// TestRandomIntoMatchesRandPerm proves the pooled generator's rng
// compatibility claim directly against math/rand: RandomInto must consume
// the same draws and produce the same permutation as the rand.Perm-based
// construction it replaced, so every seeded sweep result stays
// byte-identical.
func TestRandomIntoMatchesRandPerm(t *testing.T) {
	rngA := rand.New(rand.NewSource(99))
	rngB := rand.New(rand.NewSource(99))
	for n := 1; n <= 12; n++ {
		p := New(n)
		for trial := 0; trial < 25; trial++ {
			want := rngA.Perm(n)
			RandomInto(rngB, p)
			for i, d := range want {
				if p.Dst(i) != d {
					t.Fatalf("n=%d trial %d: RandomInto diverged from rand.Perm at %d: %d vs %d", n, trial, i, p.Dst(i), d)
				}
			}
		}
		// The generators must leave the two streams in the same state.
		if a, b := rngA.Int63(), rngB.Int63(); a != b {
			t.Fatalf("n=%d: rng streams diverged after RandomInto (%d vs %d)", n, a, b)
		}
	}
}

// TestRandomPartialIntoMatchesOriginal replays the pre-pooling
// RandomPartial construction draw for draw and checks the pooled variant
// reproduces both the pattern and the rng state.
func TestRandomPartialIntoMatchesOriginal(t *testing.T) {
	rngA := rand.New(rand.NewSource(7))
	rngB := rand.New(rand.NewSource(7))
	for n := 1; n <= 12; n++ {
		p := New(n)
		sc := NewPatternScratch(n)
		for trial := 0; trial < 25; trial++ {
			density := 0.25 + float64(trial)/50
			// The original construction: per-endpoint coin flips, a
			// truncated full Perm of destinations, a Perm over the sources.
			var sources []int
			for i := 0; i < n; i++ {
				if rngA.Float64() < density {
					sources = append(sources, i)
				}
			}
			dests := rngA.Perm(n)[:len(sources)]
			want := New(n)
			order := rngA.Perm(len(sources))
			for i, s := range sources {
				want.dst[s] = dests[order[i]]
			}

			RandomPartialInto(rngB, p, density, sc)
			if !p.Equal(want) {
				t.Fatalf("n=%d trial %d: RandomPartialInto %s != original %s", n, trial, p, want)
			}
		}
		if a, b := rngA.Int63(), rngB.Int63(); a != b {
			t.Fatalf("n=%d: rng streams diverged after RandomPartialInto (%d vs %d)", n, a, b)
		}
	}
}

// TestRandomAmongIntoMatchesOriginal replays the campaign's original
// surviving-host draw — rand.Perm over the hosts, embedded pair by pair
// with Add — and checks the pooled variant reproduces both the pattern and
// the rng state, on host subsets with gaps.
func TestRandomAmongIntoMatchesOriginal(t *testing.T) {
	rngA := rand.New(rand.NewSource(11))
	rngB := rand.New(rand.NewSource(11))
	sc := &PatternScratch{}
	for n := 1; n <= 12; n++ {
		p := New(n)
		for trial := 0; trial < 25; trial++ {
			var hosts []int
			for h := 0; h < n; h++ {
				if (h+trial)%3 != 0 {
					hosts = append(hosts, h)
				}
			}
			want := New(n)
			for i, j := range rngA.Perm(len(hosts)) {
				if err := want.Add(hosts[i], hosts[j]); err != nil {
					t.Fatal(err)
				}
			}
			RandomAmongInto(rngB, p, hosts, sc)
			if !p.Equal(want) {
				t.Fatalf("n=%d trial %d: RandomAmongInto %s != original %s", n, trial, p, want)
			}
		}
		if a, b := rngA.Int63(), rngB.Int63(); a != b {
			t.Fatalf("n=%d: rng streams diverged after RandomAmongInto (%d vs %d)", n, a, b)
		}
	}
}

// TestRandomIntoAllocationFree pins the pooled generators' reason to
// exist: refilling a pattern allocates nothing once the scratch is sized.
func TestRandomIntoAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := New(16)
	sc := NewPatternScratch(16)
	if avg := testing.AllocsPerRun(100, func() {
		RandomInto(rng, p)
	}); avg != 0 {
		t.Fatalf("RandomInto allocates %v per run", avg)
	}
	if avg := testing.AllocsPerRun(100, func() {
		RandomPartialInto(rng, p, 0.5, sc)
	}); avg != 0 {
		t.Fatalf("RandomPartialInto allocates %v per run", avg)
	}
	hosts := []int{0, 2, 3, 5, 8, 13, 15}
	if avg := testing.AllocsPerRun(100, func() {
		RandomAmongInto(rng, p, hosts, sc)
	}); avg != 0 {
		t.Fatalf("RandomAmongInto allocates %v per run", avg)
	}
}

// Test-only helpers: no program calls these, so they live with the
// tests that use them.

// RandomPartial returns a random partial permutation in which each
// endpoint sends with probability density; destinations are a random
// matching over a same-sized random subset of endpoints.
func RandomPartial(rng *rand.Rand, n int, density float64) *Permutation {
	p := New(n)
	RandomPartialInto(rng, p, density, &PatternScratch{})
	return p
}
