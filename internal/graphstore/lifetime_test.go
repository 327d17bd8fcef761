package graphstore

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// An arena created by Put (an inline request's graph) is shared by
// concurrent holders and gone once the last of them releases it.
func TestInlineArenaScopedToReferences(t *testing.T) {
	for _, dir := range []string{"", t.TempDir()} {
		s, err := Open(Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		a1, rel1, err := s.Put(testGraph(0))
		if err != nil {
			t.Fatal(err)
		}
		a2, rel2, err := s.Put(testGraph(0))
		if err != nil {
			t.Fatal(err)
		}
		if a1 != a2 {
			t.Fatal("two live inline references did not share one arena")
		}
		if st := s.Stats(); st.Known != 1 || st.Refs != 2 || st.Bytes != a1.Bytes() {
			t.Fatalf("while referenced: %+v, want 1 arena of %d bytes with 2 refs", st, a1.Bytes())
		}
		rel1()
		if st := s.Stats(); st.Known != 1 || st.Refs != 1 {
			t.Fatalf("after one release: %+v, want the arena still held", st)
		}
		rel2()
		if st := s.Stats(); st.Known != 0 || st.Bytes != 0 || st.Refs != 0 {
			t.Fatalf("after both releases: %+v, want nothing left", st)
		}
		if _, ok := s.Get(a1.ID()); ok {
			t.Fatal("released inline arena still listed")
		}
		if dir != "" {
			if names, _ := filepath.Glob(filepath.Join(dir, "*"+arenaFileExt)); len(names) != 0 {
				t.Fatalf("inline arena persisted: %v", names)
			}
		}
		s.Close()
	}
}

// A committed arena outlives its references, and an inline Put into it
// takes a reference without downgrading it.
func TestCommittedArenaNotDowngradedByPut(t *testing.T) {
	s, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	a, rel, err := s.IngestReader(strings.NewReader(hmetisDoc(0)), "g0")
	if err != nil {
		t.Fatal(err)
	}
	rel()
	b, relB, err := s.Put(testGraph(0))
	if err != nil {
		t.Fatal(err)
	}
	if b != a {
		t.Fatal("inline Put of a committed graph did not dedup into it")
	}
	relB()
	if st := s.Stats(); st.Known != 1 || st.Bytes != a.Bytes() || st.Refs != 0 {
		t.Fatalf("after releasing the inline reference: %+v, want the committed arena resident", st)
	}
	if _, relC, err := s.Acquire(a.ID()); err != nil {
		t.Fatalf("committed arena dropped: %v", err)
	} else {
		relC()
	}
}

// A commit of a graph that is live only as an inline arena promotes it: it
// survives its inline references and, with a Dir, is written to disk.
func TestCommitPromotesInlineArena(t *testing.T) {
	for _, dir := range []string{"", t.TempDir()} {
		s, err := Open(Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		inline, relInline, err := s.Put(testGraph(1))
		if err != nil {
			t.Fatal(err)
		}
		_, relCommit, err := s.IngestReader(strings.NewReader(hmetisDoc(1)), "g1")
		if err != nil {
			t.Fatal(err)
		}
		relCommit()
		relInline()
		if st := s.Stats(); st.Known != 1 || st.Bytes == 0 {
			t.Fatalf("promoted arena dropped: %+v", st)
		}
		if _, rel, err := s.Acquire(inline.ID()); err != nil {
			t.Fatalf("promoted arena not acquirable: %v", err)
		} else {
			rel()
		}
		if dir != "" {
			if _, err := os.Stat(filepath.Join(dir, inline.ID()+arenaFileExt)); err != nil {
				t.Fatalf("promoted arena has no file: %v", err)
			}
		}
		s.Close()
	}
}
