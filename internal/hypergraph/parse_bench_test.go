package hypergraph

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// TestReadHMetisLongLine: a hyperedge line longer than 1 MiB still parses —
// the line scanner starts small but grows up to its 16 MiB token limit.
func TestReadHMetisLongLine(t *testing.T) {
	const nv = 200000
	var sb strings.Builder
	for v := 1; v <= nv; v++ {
		fmt.Fprintf(&sb, "%d ", v)
	}
	if sb.Len() <= 1<<20 {
		t.Fatalf("test document's long line is only %d bytes", sb.Len())
	}
	doc := fmt.Sprintf("2 %d\n%s\n1 2\n", nv, sb.String())
	h, err := ReadHMetis(strings.NewReader(doc))
	if err != nil {
		t.Fatalf("long line rejected: %v", err)
	}
	if h.NumEdges() != 2 || len(h.Pins(0)) != nv || len(h.Pins(1)) != 2 {
		t.Fatalf("got %d edges, %d and %d pins", h.NumEdges(), len(h.Pins(0)), len(h.Pins(1)))
	}
}

// inlineDoc renders a deterministic ~16 KB hMetis document, the size of
// the inline requests a service parses on every job.
func inlineDoc() string {
	const nv, ne = 470, 1250
	rng := rand.New(rand.NewSource(1))
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d %d\n", ne, nv)
	for e := 0; e < ne; e++ {
		pins := 2 + rng.Intn(4)
		for i := 0; i < pins; i++ {
			if i > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "%d", 1+rng.Intn(nv))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// BenchmarkReadHMetis: the batch parser on an inline-sized document.
func BenchmarkReadHMetis(b *testing.B) {
	doc := inlineDoc()
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ReadHMetis(strings.NewReader(doc)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParseHMetisStream: the streaming parser into a CSRBuilder (the
// upload path) on the same document.
func BenchmarkParseHMetisStream(b *testing.B) {
	doc := inlineDoc()
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var cb CSRBuilder
		if err := ParseHMetisStream(strings.NewReader(doc), &cb); err != nil {
			b.Fatal(err)
		}
	}
}
