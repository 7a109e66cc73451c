package routing

import "repro/internal/topology"

// Conflict classes: the route table's Lemma-1 quotient, which is what the
// delta engine loads instead of links.
//
// By Lemma 1 a link can carry two pairs of one permutation only if its
// pair set — the SD pairs whose spans cross it — has at least two
// distinct sources and two distinct destinations. A link whose pairs all
// share one source, or all share one destination (a Lemma-1 star), never
// carries more than one pair of a permutation, so its load is 0 or 1 and
// it never contends: every host link is one, and so is every link of a
// Lemma-1-nonblocking routing. The quotient drops those links. Links
// whose pair sets are equal carry equal loads under every pattern (a
// spray's parallel uplinks, for one), so the quotient merges them into
// one class whose weight is its link count. A pair's class span lists
// each class its link span crosses, once.
//
// The build takes two passes over the pair stream, each O(entries), and
// builds no per-link pair list. The first finds the stars: each link
// keeps its pairs' one source and one destination, or a mark once it has
// seen two. The second finds the classes among the links left by
// partition refinement: every such link starts in block 0, and each pair
// moves the links of its span, block by block, into a fresh block, so
// after the last pair two links share a block exactly when the same pairs
// crossed them.

// The first pass packs each link's state into its dedup scratch word:
// source+1 in the high half and destination+1 in the low half (hosts stay
// far below 2^16 under the pair budget), 0 for none yet and many for two
// or more, so a link that can carry two pairs reads conflicted. The second
// pass reuses the word for the link's block, or dropped.
const (
	many       = 0xffff
	conflicted = many<<16 | many
	dropped    = ^uint32(0)
)

// refineBlock is one block of the partition refinement.
type refineBlock struct {
	// size is the block's link count; pairs is the size of its pair set.
	size, pairs int32
	// mark is the stamp of the last pair that split the block, and split
	// the block that pair moves its links to. A free block's split links
	// it to the next free block. After the stream, split is the class
	// index and mark the class's lowest link.
	mark, split int32
}

// buildClasses computes the table's conflict classes. scratch must hold
// at least NumLinks() entries; it becomes the link-to-class map, so the
// build reuses the dedup scratch instead of allocating its own.
func (t *RouteTable) buildClasses(scratch []uint32) {
	state := scratch[:t.numLinks]
	clear(state)
	for s := 0; s < t.hosts; s++ {
		for d := 0; d < t.hosts; d++ {
			for _, l := range t.PairLinks(s, d) {
				st := state[l]
				src, dst := st>>16, st&many
				if src == 0 {
					src, dst = uint32(s)+1, uint32(d)+1
				}
				if src != uint32(s)+1 {
					src = many
				}
				if dst != uint32(d)+1 {
					dst = many
				}
				state[l] = src<<16 | dst
			}
		}
	}
	// From here on the scratch maps each conflicting link to its block
	// and every other link to dropped.
	block := state
	links := 0
	for l, st := range state {
		if st == conflicted {
			block[l] = 0
			links++
		} else {
			block[l] = dropped
		}
	}
	if links == 0 {
		return
	}

	// Every block but 0 holds a link, and a new block gets its first link
	// at once, so at most links+2 block IDs are ever in use: the slice
	// never grows past its capacity, which on small fabrics is on the
	// stack.
	var small [128]refineBlock
	blocks := small[:1]
	if links+2 > len(small) {
		blocks = make([]refineBlock, 1, links+2)
	}
	free := int32(-1)
	stamp := int32(0)
	for s := 0; s < t.hosts; s++ {
		for d := 0; d < t.hosts; d++ {
			stamp++
			for _, l := range t.PairLinks(s, d) {
				if block[l] == dropped {
					continue
				}
				c := int32(block[l])
				if blocks[c].mark != stamp {
					// The pair's first link in block c: open the block its
					// links move to, whose pair set is c's plus (s, d).
					n := free
					if n >= 0 {
						free = blocks[n].split
					} else {
						n = int32(len(blocks))
						blocks = append(blocks, refineBlock{})
					}
					blocks[n] = refineBlock{pairs: blocks[c].pairs + 1}
					blocks[c].mark, blocks[c].split = stamp, n
				}
				n := blocks[c].split
				block[l] = uint32(n)
				blocks[n].size++
				if c != 0 {
					if blocks[c].size--; blocks[c].size == 0 {
						blocks[c].split, free = free, c
					}
				}
			}
		}
	}

	// Number the classes in order of their lowest link.
	for i := range blocks {
		blocks[i].split = -1
	}
	classes, entries := int32(0), 0
	for l, c := range block {
		if c == dropped {
			continue
		}
		if b := &blocks[c]; b.split < 0 {
			b.split, b.mark = classes, int32(l)
			classes++
			entries += int(b.pairs)
		}
	}
	pairs := t.hosts * t.hosts
	buf := make([]int32, pairs+1+entries+int(classes))
	t.classOffs, t.classes, t.weights = buf[:pairs+1], buf[pairs+1:pairs+1+entries], buf[pairs+1+entries:]
	// A pair's class span keeps the lowest link of each class it crosses.
	k := int32(0)
	for i := 0; i < pairs; i++ {
		t.classOffs[i] = k
		for _, l := range t.links[t.offs[i]:t.offs[i+1]] {
			if c := block[l]; c != dropped && blocks[c].mark == int32(l) {
				t.classes[k] = blocks[c].split
				k++
			}
		}
	}
	t.classOffs[pairs] = k
	for l, c := range block {
		cl := int32(-1)
		if c != dropped {
			cl = blocks[c].split
			t.weights[cl]++
		}
		block[l] = uint32(cl + 1)
	}
	t.linkClass = block
}

// ClassSpans returns the quotient in CSR form: pair (src, dst)'s class
// span, each class it crosses once, is classes[offs[i]:offs[i+1]] with
// i = src*Hosts()+dst, and weights[c] is class c's link count. All three
// are nil when the table has no class. They are views into the shared
// backing array and must not be modified.
func (t *RouteTable) ClassSpans() (offs, classes, weights []int32) {
	return t.classOffs, t.classes, t.weights
}

// LinkClass returns link l's conflict class, or −1 when the quotient
// dropped it: no pair crosses it, or its pairs form a Lemma-1 star.
func (t *RouteTable) LinkClass(l topology.LinkID) int {
	if l < 0 || int(l) >= len(t.linkClass) {
		return -1
	}
	return int(t.linkClass[l]) - 1
}
