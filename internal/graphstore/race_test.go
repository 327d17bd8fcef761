package graphstore

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestConcurrentAcquireReleaseEvict hammers the ref-count and LRU
// machinery from many goroutines: concurrent ingests and inline Puts of a
// handful of distinct graphs under a budget tight enough to force constant
// eviction, interleaved with acquire/use/release cycles and deletes.
// Run under -race this is the arena lifetime safety proof.
func TestConcurrentAcquireReleaseEvict(t *testing.T) {
	dir := t.TempDir()

	// Seed one graph to size the budget: room for ~2 of the 6 graphs.
	seed, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	a, rel, err := seed.IngestReader(strings.NewReader(hmetisDoc(0)), "seed")
	if err != nil {
		t.Fatal(err)
	}
	budget := a.Bytes() * 5 / 2
	rel()
	seed.Close()

	s, err := Open(Config{Dir: dir, MaxBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const workers = 8
	const iters = 60
	ids := make([]string, 6)
	var idMu sync.Mutex

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				g := (w + i) % len(ids)
				// Odd workers intern inline (Put), racing the commits of
				// the same graphs into promotions and inline drops.
				var a *Arena
				var release func()
				var err error
				if w%2 == 1 {
					a, release, err = s.Put(testGraph(g))
				} else {
					a, release, err = s.IngestReader(strings.NewReader(hmetisDoc(g)), fmt.Sprintf("g%d", g))
				}
				if err != nil {
					t.Errorf("ingest g%d: %v", g, err)
					return
				}
				idMu.Lock()
				ids[g] = a.ID()
				idMu.Unlock()
				// Touch the shared view while holding the ref.
				h := a.Hypergraph()
				sum := 0
				for e := 0; e < h.NumEdges(); e++ {
					sum += len(h.Pins(e))
				}
				if sum == 0 {
					t.Errorf("g%d: empty pins through shared view", g)
				}
				release()

				// Re-acquire by ID; eviction may force a reload.
				idMu.Lock()
				id := ids[g]
				idMu.Unlock()
				if a2, rel2, err := s.Acquire(id); err == nil {
					_ = a2.Hypergraph().NumVertices()
					rel2()
				}
				// Occasionally try deleting an unreferenced arena; both
				// outcomes (deleted, ErrReferenced) are legal.
				if i%17 == w%17 {
					s.Delete(id) //nolint:errcheck
				}
			}
		}(w)
	}
	wg.Wait()

	st := s.Stats()
	if st.Refs != 0 {
		t.Fatalf("stats %+v: refs leaked", st)
	}
	if st.Bytes > budget {
		t.Fatalf("resident %d bytes over budget %d after quiesce", st.Bytes, budget)
	}
}

// TestConcurrentUploadSessions runs many whole upload lifecycles in
// parallel, all committing the same underlying graph — every commit
// must dedup into the same arena.
func TestConcurrentUploadSessions(t *testing.T) {
	s, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	doc := hmetisDoc(2)
	const sessions = 12
	idsCh := make(chan string, sessions)
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			up, err := s.CreateUpload("same")
			if err != nil {
				t.Error(err)
				return
			}
			mid := len(doc) / 2
			if _, err := s.PutPart(up.ID, 1, strings.NewReader(doc[mid:])); err != nil {
				t.Error(err)
				return
			}
			if _, err := s.PutPart(up.ID, 0, strings.NewReader(doc[:mid])); err != nil {
				t.Error(err)
				return
			}
			a, release, err := s.CommitUpload(up.ID)
			if err != nil {
				t.Error(err)
				return
			}
			idsCh <- a.ID()
			release()
		}()
	}
	wg.Wait()
	close(idsCh)

	var first string
	n := 0
	for id := range idsCh {
		if first == "" {
			first = id
		} else if id != first {
			t.Fatalf("commit produced different arena IDs: %s vs %s", first, id)
		}
		n++
	}
	if n != sessions {
		t.Fatalf("%d of %d sessions committed", n, sessions)
	}
	if st := s.Stats(); st.Known != 1 || st.Uploads != 0 {
		t.Fatalf("stats %+v: want exactly one arena and no open uploads", st)
	}
}
