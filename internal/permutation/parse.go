package permutation

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse reads a pattern from its textual form: whitespace- or
// comma-separated SD pairs "src->dst", e.g. "0->3 1->2" or "0->3,1->2".
// The result is validated against Definition 1. n is the endpoint count;
// endpoints not mentioned stay idle.
func Parse(n int, s string) (*Permutation, error) {
	p := New(n)
	fields := strings.FieldsFunc(s, func(r rune) bool { return r == ' ' || r == ',' || r == '\t' || r == '\n' })
	for _, f := range fields {
		parts := strings.Split(f, "->")
		if len(parts) != 2 {
			return nil, fmt.Errorf("permutation: malformed pair %q (want src->dst)", f)
		}
		src, err := strconv.Atoi(strings.TrimSpace(parts[0]))
		if err != nil {
			return nil, fmt.Errorf("permutation: bad source in %q: %v", f, err)
		}
		dst, err := strconv.Atoi(strings.TrimSpace(parts[1]))
		if err != nil {
			return nil, fmt.Errorf("permutation: bad destination in %q: %v", f, err)
		}
		if err := p.Add(src, dst); err != nil {
			return nil, err
		}
	}
	return p, nil
}
