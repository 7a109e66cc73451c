package topology

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestBenesCountsAndStages(t *testing.T) {
	for k := 1; k <= 6; k++ {
		b := NewBenes(k)
		n := 1 << k
		if b.N != n {
			t.Fatalf("k=%d: N=%d", k, b.N)
		}
		if b.Stages() != 2*k-1 {
			t.Fatalf("k=%d: stages=%d", k, b.Stages())
		}
		if got := b.Net.NumSwitches(); got != (2*k-1)*n/2 {
			t.Fatalf("k=%d: switches=%d, want %d", k, got, (2*k-1)*n/2)
		}
		if got := b.Net.NumHosts(); got != 2*n {
			t.Fatalf("k=%d: terminals=%d, want %d", k, got, 2*n)
		}
		if err := b.Validate(); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
	}
}

func TestBenesWiringIsBlockedPermutation(t *testing.T) {
	// Every inter-stage wiring must be a permutation of lines that stays
	// within its recursion block.
	b := NewBenes(4)
	for s := 0; s+1 < b.Stages(); s++ {
		seen := map[int]bool{}
		for line := 0; line < b.N; line++ {
			nl := b.NextLine(s, line)
			if nl < 0 || nl >= b.N || seen[nl] {
				t.Fatalf("stage %d: line %d -> %d duplicates or out of range", s, line, nl)
			}
			seen[nl] = true
		}
	}
}

func TestBenesB2WiringExplicit(t *testing.T) {
	// B(4 terminals): stage 0 -> 1 is the unshuffle of 4 lines
	// (0,1,2,3 -> 0,2,1,3); stage 1 -> 2 the shuffle (its inverse).
	b := NewBenes(2)
	wantDown := []int{0, 2, 1, 3}
	for line, want := range wantDown {
		if got := b.NextLine(0, line); got != want {
			t.Fatalf("unshuffle(%d) = %d, want %d", line, got, want)
		}
	}
	for line := 0; line < 4; line++ {
		if got := b.NextLine(1, wantDown[line]); got != line {
			t.Fatalf("shuffle(unshuffle(%d)) = %d", line, got)
		}
	}
}

func TestBenesMirrorSymmetry(t *testing.T) {
	// The ascending wiring at mirrored depth inverts the descending one:
	// nextLine(mirror(s), nextLine(s, x)) == x whenever both operate on
	// the same block size, checked via quick random probes.
	b := NewBenes(5)
	f := func(stage, line uint8) bool {
		s := int(stage) % (b.Stages() / 2) // descending side only
		x := int(line) % b.N
		mirror := b.Stages() - 2 - s // ascending stage with equal block size
		return b.NextLine(mirror, b.NextLine(s, x)) == x
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBenesAccessorPanics(t *testing.T) {
	b := NewBenes(2)
	for name, fn := range map[string]func(){
		"InTerminal":  func() { b.InTerminal(4) },
		"OutTerminal": func() { b.OutTerminal(-1) },
		"SwitchID-s":  func() { b.SwitchID(3, 0) },
		"SwitchID-j":  func() { b.SwitchID(0, 2) },
		"NextLine-s":  func() { b.NextLine(2, 0) },
		"NextLine-l":  func() { b.NextLine(0, 9) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestBenesTerminalWiring(t *testing.T) {
	b := NewBenes(3)
	// Input i feeds switch i/2 of stage 0; output i is fed by switch i/2
	// of the last stage.
	for i := 0; i < b.N; i++ {
		if b.Net.FindLink(b.InTerminal(i), b.SwitchID(0, i/2)) == NoLink {
			t.Fatalf("input %d not wired", i)
		}
		if b.Net.FindLink(b.SwitchID(b.Stages()-1, i/2), b.OutTerminal(i)) == NoLink {
			t.Fatalf("output %d not wired", i)
		}
	}
}

// Test-only helpers: no program calls these, so they live with the
// tests that use them.

// NextLine is the range-checked inter-stage wiring: the
// input line of stage s+1 fed by output line `line` of stage s.
func (b *Benes) NextLine(s, line int) int {
	if s < 0 || s+1 >= b.Stages() {
		panic(fmt.Sprintf("topology: no wiring after stage %d", s))
	}
	if line < 0 || line >= b.N {
		panic(fmt.Sprintf("topology: line %d out of range", line))
	}
	return b.nextLine(s, line)
}
