package routing

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/permutation"
	"repro/internal/topology"
)

// TestBuildRouteTableOffsetOverflowGuard exercises the entry budget by
// lowering it instead of materializing a table that large: the moment the
// flat link array would outgrow it, the build must fail with
// ErrRouteTableTooLarge (which sweeps translate into the per-pattern
// oracle fallback) rather than grow the table past its budget.
func TestBuildRouteTableOffsetOverflowGuard(t *testing.T) {
	f := topology.NewFoldedClos(2, 4, 3)
	r, err := NewPaperDeterministic(f)
	if err != nil {
		t.Fatal(err)
	}
	full, err := BuildRouteTable(r, f.Ports())
	if err != nil {
		t.Fatal(err)
	}
	if full.Entries() < 2 {
		t.Fatalf("network too small to trip the guard: %d entries", full.Entries())
	}

	defer func(saved int) { maxRouteTableEntries = saved }(maxRouteTableEntries)
	maxRouteTableEntries = full.Entries() - 1
	_, err = BuildRouteTable(r, f.Ports())
	if !errors.Is(err, ErrRouteTableTooLarge) {
		t.Fatalf("err = %v, want ErrRouteTableTooLarge", err)
	}

	// At exactly the cap the table still builds: the guard rejects only
	// genuinely unaddressable sizes.
	maxRouteTableEntries = full.Entries()
	if _, err := BuildRouteTable(r, f.Ports()); err != nil {
		t.Fatalf("build at the exact cap failed: %v", err)
	}
}

// TestLinkDedupEpochWrap pins the wrap behaviour of the dedup scratch: a
// generation counter that wraps to zero would make every never-marked
// entry (seen[l] == 0) look already-seen, silently dropping links from
// spans. The wrap must clear the scratch and restart at epoch 1.
func TestLinkDedupEpochWrap(t *testing.T) {
	d := linkDedup{epoch: ^uint32(0) - 1}
	d.nextPair() // epoch = MaxUint32
	if !d.firstSight(0) || !d.firstSight(1) {
		t.Fatal("fresh links not first sights before the wrap")
	}
	if d.firstSight(0) {
		t.Fatal("duplicate link reported as first sight")
	}
	d.nextPair() // wraps: must clear and restart at 1
	if d.epoch != 1 {
		t.Fatalf("post-wrap epoch = %d, want 1", d.epoch)
	}
	for l := topology.LinkID(0); l < 2; l++ {
		if d.seen[l] != 0 {
			t.Fatalf("seen[%d] = %d not cleared on wrap", l, d.seen[l])
		}
	}
	if !d.firstSight(0) {
		t.Fatal("post-wrap pair aliased a stale entry: link 0 not a first sight")
	}
	if d.firstSight(0) {
		t.Fatal("post-wrap duplicate reported as first sight")
	}
}

// TestBuildRouteTableEpochWrapParity forces the 2^32 wrap inside a small
// build (via the start-epoch test hook) and requires the resulting table
// to be identical to one built with a fresh counter — the regression that
// previously aliased stale marks and emptied every post-wrap span.
func TestBuildRouteTableEpochWrapParity(t *testing.T) {
	f := topology.NewFoldedClos(2, 4, 3)
	r, err := NewPaperDeterministic(f)
	if err != nil {
		t.Fatal(err)
	}
	want, err := BuildRouteTable(r, f.Ports())
	if err != nil {
		t.Fatal(err)
	}

	defer func() { routeTableStartEpoch = 0 }()
	// The wrap lands a few pairs into the hosts² pair scan.
	routeTableStartEpoch = ^uint32(0) - 3
	got, err := BuildRouteTable(r, f.Ports())
	if err != nil {
		t.Fatal(err)
	}
	if got.Entries() != want.Entries() || got.NumLinks() != want.NumLinks() {
		t.Fatalf("wrapped build: %d entries / %d links, want %d / %d",
			got.Entries(), got.NumLinks(), want.Entries(), want.NumLinks())
	}
	for s := 0; s < f.Ports(); s++ {
		for d := 0; d < f.Ports(); d++ {
			a, b := got.PairLinks(s, d), want.PairLinks(s, d)
			if len(a) != len(b) {
				t.Fatalf("pair %d->%d: wrapped span %v, want %v", s, d, a, b)
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("pair %d->%d: wrapped span %v, want %v", s, d, a, b)
				}
			}
		}
	}
}

// countingRouter is a PairLinkAppender that counts its routing calls and
// loads one link per pair.
type countingRouter struct{ calls int }

func (c *countingRouter) Name() string { return "counting" }

func (c *countingRouter) Route(*permutation.Permutation) (*Assignment, error) {
	return nil, errors.New("countingRouter: Route is not used")
}

func (c *countingRouter) AppendPairLinks(src, dst int, buf []topology.LinkID) ([]topology.LinkID, error) {
	c.calls++
	return append(buf, topology.LinkID(src)), nil
}

// TestBuildRouteTablePairBudget refuses a table whose offsets alone pass
// the pair budget before routing a pair or allocating the table: 80,000
// hosts would need 25 GB of offsets. The refusal is one allocation and
// wraps ErrRouteTableTooLarge, and a host count at the budget still
// builds.
func TestBuildRouteTablePairBudget(t *testing.T) {
	r := &countingRouter{}
	var err error
	allocs := testing.AllocsPerRun(5, func() { _, err = BuildRouteTable(r, 80000) })
	if !errors.Is(err, ErrRouteTableTooLarge) {
		t.Fatalf("err = %v, want ErrRouteTableTooLarge", err)
	}
	if r.calls != 0 {
		t.Fatalf("%d AppendPairLinks calls before the refusal, want 0", r.calls)
	}
	if allocs > 1 {
		t.Fatalf("refusal costs %v allocations, want at most 1", allocs)
	}
	if !strings.Contains(err.Error(), "80000 hosts") {
		t.Fatalf("error %q does not name the host count", err)
	}

	defer func(saved int) { maxRouteTablePairs = saved }(maxRouteTablePairs)
	maxRouteTablePairs = 36
	if _, err := BuildRouteTable(r, 6); err != nil {
		t.Fatalf("6 hosts at a 36-pair budget: %v", err)
	}
	if _, err := BuildRouteTable(r, 7); !errors.Is(err, ErrRouteTableTooLarge) {
		t.Fatalf("7 hosts at a 36-pair budget: err = %v, want ErrRouteTableTooLarge", err)
	}
}
