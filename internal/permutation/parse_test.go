package permutation

import "testing"

func TestParse(t *testing.T) {
	p, err := Parse(6, "0->3 1->2")
	if err != nil {
		t.Fatal(err)
	}
	if p.Dst(0) != 3 || p.Dst(1) != 2 || p.Dst(2) != Unused {
		t.Fatalf("parsed wrong: %s", p)
	}
	// Comma and mixed separators.
	p, err = Parse(4, "0->1,2->3")
	if err != nil {
		t.Fatal(err)
	}
	if p.Size() != 2 {
		t.Fatal("comma-separated parse failed")
	}
	p, err = Parse(4, " 0->1 ,\n2->3\t")
	if err != nil || p.Size() != 2 {
		t.Fatalf("messy separators: %v %v", p, err)
	}
	// Empty input = empty pattern.
	p, err = Parse(3, "")
	if err != nil || p.Size() != 0 {
		t.Fatal("empty parse failed")
	}
	// Round trip through String.
	q, err := Parse(6, "0->5 4->1")
	if err != nil {
		t.Fatal(err)
	}
	if r, err := Parse(6, q.String()); err != nil || !r.Equal(q) {
		t.Fatalf("round trip failed: %v %v", r, err)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"0-3",       // missing arrow
		"a->1",      // bad source
		"1->b",      // bad destination
		"9->0",      // source out of range
		"0->9",      // destination out of range
		"0->1 0->2", // duplicate source
		"0->1 2->1", // duplicate destination
		"0->1->2",   // too many arrows
	}
	for _, s := range cases {
		if _, err := Parse(4, s); err == nil {
			t.Errorf("Parse(%q) accepted", s)
		}
	}
}
