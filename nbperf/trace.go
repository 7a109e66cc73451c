package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"strings"
	"time"
)

// span is one timed call into a layer. Spans of one request share req;
// parent is the index of the enclosing span (-1 for a request's root). n
// is the call's work count where it has one (patterns swept, route-table
// entries), else 0.
type span struct {
	req, parent int32
	name        string
	start, end  int64 // ns since the tracer started
	n           int64
}

// tracer records spans in memory, in start order, from one goroutine.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int32
	req   int32
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string) int32 {
	parent := int32(-1)
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{req: t.req, parent: parent, name: name, start: int64(time.Since(t.t0))})
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int32) { t.endN(id, 0) }

func (t *tracer) endN(id int32, n int64) {
	t.spans[id].end = int64(time.Since(t.t0))
	t.spans[id].n = n
	t.open = t.open[:len(t.open)-1]
}

// layer names the module a span times: the part of its name before the
// first dot ("analysis.sweep" is in analysis).
func layer(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// selfTimes returns each layer's self time in ns: every span's duration
// minus the time its direct children cover. Children of one span never
// overlap, because the replay is sequential.
func selfTimes(spans []span) map[string]int64 {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	out := map[string]int64{}
	for i, s := range spans {
		out[layer(s.name)] += s.end - s.start - child[i]
	}
	return out
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	count   int
	totalNs int64
	work    int64
}

func (s spanStat) meanNs() float64 {
	if s.count == 0 {
		return 0
	}
	return float64(s.totalNs) / float64(s.count)
}

func statsByName(spans []span) map[string]spanStat {
	out := map[string]spanStat{}
	for _, s := range spans {
		st := out[s.name]
		st.count++
		st.totalNs += s.end - s.start
		st.work += s.n
		out[s.name] = st
	}
	return out
}

// writeSpans writes the spans as gzipped tab-separated lines: request,
// span index, parent, name, start ns, end ns, work count.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	fmt.Fprintln(bw, "req\tid\tparent\tname\tstart_ns\tend_ns\tn")
	for i, s := range spans {
		fmt.Fprintf(bw, "%d\t%d\t%d\t%s\t%d\t%d\t%d\n", s.req, i, s.parent, s.name, s.start, s.end, s.n)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
