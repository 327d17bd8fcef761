package graphstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"hyperpraw/internal/hypergraph"
)

// Sentinel errors the HTTP layers translate into status codes.
var (
	// ErrNotFound: no committed arena or open upload with that ID.
	ErrNotFound = errors.New("graphstore: unknown hypergraph")
	// ErrReferenced: the arena is pinned by running or queued jobs.
	ErrReferenced = errors.New("graphstore: hypergraph is referenced")
	// ErrUploadState: the operation does not apply to the session's state
	// (e.g. adding parts to an already-committed upload).
	ErrUploadState = errors.New("graphstore: upload not open")
	// ErrIncomplete: commit refused because the received parts do not form
	// a dense 0..k-1 sequence; the message names what is missing.
	ErrIncomplete = errors.New("graphstore: upload incomplete")
	// ErrTooLarge: an upload exceeded Config.MaxUploadBytes.
	ErrTooLarge = errors.New("graphstore: upload too large")
)

// Config tunes a Store.
type Config struct {
	// Dir is the backing directory for committed arenas (mmap-backed,
	// survive restarts) and upload spools. Empty means memory-only
	// arenas and upload spools in the system temp directory.
	Dir string
	// MaxBytes bounds resident arena bytes: when exceeded, unreferenced
	// arenas are evicted least-recently-used first (disk-backed arenas
	// drop their mapping and reload on next use; memory-only arenas are
	// gone for good). 0 means unlimited. Arenas interned only by Put
	// never wait for eviction: they are dropped as soon as their last
	// reference is released.
	MaxBytes int64
	// MaxUploadBytes bounds one upload session's spooled bytes
	// (0 = DefaultMaxUploadBytes).
	MaxUploadBytes int64
}

// DefaultMaxUploadBytes bounds one upload spool: 4 GiB covers a
// billion-pin hMetis text with room to spare.
const DefaultMaxUploadBytes = 4 << 30

// Stats is a point-in-time snapshot for telemetry.
type Stats struct {
	Arenas    int    // resident arenas
	Known     int    // all arenas, including unloaded disk-backed ones
	Bytes     int64  // resident arena bytes (what hyperpraw_graph_bytes reports)
	Refs      int64  // outstanding references across all arenas
	Evictions uint64 // lifetime LRU evictions
	Uploads   int    // open upload sessions
}

// Info describes one hypergraph resource (committed arena or open
// upload) for the API layer.
type Info struct {
	ID            string
	State         string // "uploading" | "committed"
	Name          string
	Vertices      int
	Edges         int
	Pins          int
	Bytes         int64 // arena bytes (committed)
	Refs          int
	Mapped        bool
	Resident      bool
	PartsReceived int
	UploadedBytes int64
}

// States of a hypergraph resource.
const (
	StateUploading = "uploading"
	StateCommitted = "committed"
)

// entry is one arena slot. arena == nil means the graph lives only in its
// backing file and reloads on the next Acquire. An inline entry was only
// ever interned by Put: it is heap-only, never persisted, and dropped when
// its last reference is released. A commit (upload or IngestReader) of the
// same graph promotes it to an ordinary committed entry.
type entry struct {
	meta    Info
	arena   *Arena
	refs    int
	lastUse uint64 // LRU clock tick
	inline  bool
}

// Store is the shared hypergraph arena pool for one process.
type Store struct {
	cfg Config

	mu        sync.Mutex
	entries   map[string]*entry
	uploads   map[string]*upload
	uploadSeq uint64
	clock     uint64
	resident  int64 // resident arena bytes
	evictions uint64
	closed    bool
}

// Open creates a store. With a Dir, previously committed arenas are
// re-registered (headers only; the mapping happens on first use) and
// stale upload spools are discarded.
func Open(cfg Config) (*Store, error) {
	if cfg.MaxUploadBytes <= 0 {
		cfg.MaxUploadBytes = DefaultMaxUploadBytes
	}
	s := &Store{
		cfg:     cfg,
		entries: map[string]*entry{},
		uploads: map[string]*upload{},
	}
	if cfg.Dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("graphstore: %w", err)
	}
	// A previous process's half-received uploads are not resumable across
	// restarts (the session IDs died with it); reclaim the spool space.
	os.RemoveAll(filepath.Join(cfg.Dir, "uploads")) //nolint:errcheck
	names, err := filepath.Glob(filepath.Join(cfg.Dir, "*"+arenaFileExt))
	if err != nil {
		return nil, fmt.Errorf("graphstore: scanning %s: %w", cfg.Dir, err)
	}
	for _, path := range names {
		id := strings.TrimSuffix(filepath.Base(path), arenaFileExt)
		meta, err := peekArenaFile(path)
		if err != nil {
			// A torn .arena from a crash mid-commit: the tmp+rename
			// protocol makes this unlikely, but never fatal — drop it.
			os.Remove(path) //nolint:errcheck
			continue
		}
		meta.ID = id
		meta.State = StateCommitted
		s.entries[id] = &entry{meta: meta}
	}
	return s, nil
}

// peekArenaFile reads just the header for dimensions and size.
func peekArenaFile(path string) (Info, error) {
	f, err := os.Open(path)
	if err != nil {
		return Info{}, err
	}
	defer f.Close()
	var hdr [headerSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return Info{}, err
	}
	st, err := f.Stat()
	if err != nil {
		return Info{}, err
	}
	if string(hdr[:8]) != arenaMagic {
		return Info{}, fmt.Errorf("%s: bad arena magic", path)
	}
	nv := int(binary.LittleEndian.Uint64(hdr[8:]))
	ne := int(binary.LittleEndian.Uint64(hdr[16:]))
	np := int(binary.LittleEndian.Uint64(hdr[24:]))
	flags := binary.LittleEndian.Uint64(hdr[32:])
	if nv < 0 || ne < 0 || np < 0 {
		return Info{}, fmt.Errorf("%s: negative arena dimensions", path)
	}
	if want := arenaSize(nv, ne, np, flags&flagVW != 0, flags&flagEW != 0); st.Size() != want {
		return Info{}, fmt.Errorf("%s: size %d, want %d", path, st.Size(), want)
	}
	return Info{Vertices: nv, Edges: ne, Pins: np, Bytes: st.Size()}, nil
}

// Close releases every mapping. Outstanding Acquire references become
// invalid; Close is for process shutdown only.
func (s *Store) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	for _, e := range s.entries {
		if e.arena != nil {
			e.arena.close()
			e.arena = nil
		}
	}
	for _, u := range s.uploads {
		u.discard()
	}
	s.uploads = map[string]*upload{}
}

// Stats snapshots the store for telemetry.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Known:     len(s.entries),
		Bytes:     s.resident,
		Evictions: s.evictions,
		Uploads:   len(s.uploads),
	}
	for _, e := range s.entries {
		if e.arena != nil {
			st.Arenas++
		}
		st.Refs += int64(e.refs)
	}
	return st
}

// Put interns an already-parsed hypergraph: it builds (or dedups into)
// the arena for h's fingerprint and returns the shared arena plus a
// release closure for the caller's reference. This is how inline-HMetis
// jobs join the arena pool. An arena created by Put is scoped to its
// references: concurrent holders share it, and releasing the last one
// drops it without ever writing it to disk — unless a commit of the same
// graph has promoted it in the meantime. Putting into an already
// committed arena just takes a reference.
func (s *Store) Put(h *hypergraph.Hypergraph) (*Arena, func(), error) {
	a, err := buildArena(h.Name(), h.CSR())
	if err != nil {
		return nil, nil, err
	}
	return s.intern(a, true)
}

// IngestReader streams a hypergraph from r into a new arena (or dedups
// into an existing one) and returns the arena plus a release closure for
// the caller's reference. Two wire formats are accepted, told apart by
// the first eight bytes: hMetis text is run through the streaming parser
// without materialising the document, and a serialised arena (the
// "HPGARN01" stream Arena.Raw produces — how the gateway replicates
// graphs to backends) is validated and interned as-is, skipping the
// parse entirely.
func (s *Store) IngestReader(r io.Reader, name string) (*Arena, func(), error) {
	var magic [8]byte
	n, _ := io.ReadFull(r, magic[:])
	r = io.MultiReader(bytes.NewReader(magic[:n]), r)
	if n == len(magic) && string(magic[:]) == arenaMagic {
		return s.ingestArena(r, name)
	}
	var b hypergraph.CSRBuilder
	if err := hypergraph.ParseHMetisStream(r, &b); err != nil {
		return nil, nil, err
	}
	csr, err := b.RawCSR()
	if err != nil {
		return nil, nil, err
	}
	a, err := buildArena(name, csr)
	if err != nil {
		return nil, nil, err
	}
	return s.intern(a, false)
}

// ingestArena reads an already-serialised arena stream into an aligned
// buffer, validates its framing and checksum (the fingerprint is
// recomputed from the contents, so a mislabelled stream cannot poison
// the ID namespace), and interns it like any freshly parsed graph.
func (s *Store) ingestArena(r io.Reader, name string) (*Arena, func(), error) {
	limit := s.cfg.MaxUploadBytes
	data, err := io.ReadAll(io.LimitReader(r, limit+1))
	if err != nil {
		return nil, nil, fmt.Errorf("graphstore: reading arena stream: %w", err)
	}
	if int64(len(data)) > limit {
		return nil, nil, fmt.Errorf("%w: arena stream exceeds %d byte limit", ErrTooLarge, limit)
	}
	buf := alignedBytes(int64(len(data)))
	copy(buf, data)
	a, err := arenaFromBuf(name, buf, false, "")
	if err != nil {
		return nil, nil, err
	}
	return s.intern(a, false)
}

// intern registers a freshly built heap arena, deduplicating by
// fingerprint, and returns the canonical arena with one reference taken.
// An inline intern (Put) keeps a new arena on the heap only, scoped to its
// references. A commit persists it when the store has a directory,
// swapping the heap copy for the mmap, and promotes an inline entry of
// the same graph to a committed one.
func (s *Store) intern(fresh *Arena, inline bool) (*Arena, func(), error) {
	id := fresh.ID()

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, nil, errors.New("graphstore: store closed")
	}
	if e, ok := s.entries[id]; ok && (inline || !e.inline) {
		// Duplicate of a known graph: the existing entry (and its
		// backing file, if any) wins; the fresh copy is dropped. A stale
		// entry (ErrNotFound from a raced Delete) falls through to a
		// fresh insert instead.
		a, rel, err := s.acquireLocked(id, e)
		if err == nil || !errors.Is(err, ErrNotFound) {
			s.mu.Unlock()
			return a, rel, err
		}
	}
	if inline {
		defer s.mu.Unlock()
		return s.insertLocked(fresh, true)
	}
	s.mu.Unlock()

	// Persist and remap outside the lock: commit I/O must not stall
	// concurrent Acquires.
	a := fresh
	var path string
	if s.cfg.Dir != "" {
		path = filepath.Join(s.cfg.Dir, id+arenaFileExt)
		if err := writeArenaFile(path, fresh.buf); err != nil {
			return nil, nil, fmt.Errorf("graphstore: persisting %s: %w", id, err)
		}
		switch loaded, err := loadArenaFile(path, fresh.name); {
		case err == nil:
			a = loaded
		case os.IsNotExist(err):
			// A concurrent Delete unlinked the file between write and
			// map; serve the heap copy and let the entry self-heal on a
			// later eviction.
		default:
			os.Remove(path) //nolint:errcheck
			return nil, nil, fmt.Errorf("graphstore: reloading %s: %w", id, err)
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		a.close()
		if path != "" {
			os.Remove(path) //nolint:errcheck
		}
		return nil, nil, errors.New("graphstore: store closed")
	}
	if e, ok := s.entries[id]; ok { // lost a commit race; dedup into the winner
		// An inline entry is promoted: it keeps its heap arena and, with
		// a Dir, reloads from the file written above once evicted.
		e.inline = false
		winner, rel, err := s.acquireLocked(id, e)
		if err == nil || !errors.Is(err, ErrNotFound) {
			a.close()
			return winner, rel, err
		}
		// The winner's entry went stale under a raced Delete; ours takes over.
	}
	return s.insertLocked(a, false)
}

// insertLocked adds a new entry for a and takes the caller's reference.
func (s *Store) insertLocked(a *Arena, inline bool) (*Arena, func(), error) {
	id := a.ID()
	e := &entry{
		meta: Info{
			ID:       id,
			State:    StateCommitted,
			Name:     a.name,
			Vertices: a.h.NumVertices(),
			Edges:    a.h.NumEdges(),
			Pins:     a.h.NumPins(),
			Bytes:    a.Bytes(),
		},
		arena:  a,
		inline: inline,
	}
	s.entries[id] = e
	s.resident += a.Bytes()
	// Take the caller's reference before enforcing the budget, so the
	// arena being handed out is never its own eviction victim.
	res, rel, err := s.acquireLocked(id, e)
	s.enforceLimitLocked()
	return res, rel, err
}

// Acquire pins the arena with the given ID and returns it with a
// release closure. Unloaded disk-backed arenas are reloaded (mmap, with
// heap fallback) transparently.
func (s *Store) Acquire(id string) (*Arena, func(), error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[id]
	if !ok {
		return nil, nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return s.acquireLocked(id, e)
}

func (s *Store) acquireLocked(id string, e *entry) (*Arena, func(), error) {
	if e.arena == nil {
		path := filepath.Join(s.cfg.Dir, id+arenaFileExt)
		a, err := loadArenaFile(path, e.meta.Name)
		if err != nil {
			if os.IsNotExist(err) {
				// The backing file vanished (a Delete raced an in-flight
				// commit of the same graph): the entry is stale, drop it.
				delete(s.entries, id)
				return nil, nil, fmt.Errorf("%w: %s", ErrNotFound, id)
			}
			return nil, nil, fmt.Errorf("graphstore: reloading %s: %w", id, err)
		}
		if a.ID() != id {
			a.close()
			return nil, nil, fmt.Errorf("graphstore: %s: fingerprint drift (file is %s)", id, a.ID())
		}
		e.arena = a
		s.resident += a.Bytes()
		defer s.enforceLimitLocked() // a reload can push colder arenas out
	}
	e.refs++
	s.clock++
	e.lastUse = s.clock
	a := e.arena

	var once sync.Once
	release := func() {
		once.Do(func() {
			s.mu.Lock()
			defer s.mu.Unlock()
			e.refs--
			s.clock++
			e.lastUse = s.clock
			if e.inline && e.refs == 0 {
				// An inline-only arena lives exactly as long as its jobs.
				s.dropLocked(id, e)
				return
			}
			s.enforceLimitLocked()
		})
	}
	return a, release, nil
}

// enforceLimitLocked evicts unreferenced arenas, least recently used
// first, until resident bytes fit MaxBytes.
func (s *Store) enforceLimitLocked() {
	if s.cfg.MaxBytes <= 0 {
		return
	}
	for s.resident > s.cfg.MaxBytes {
		var victim *entry
		var victimID string
		for id, e := range s.entries {
			if e.arena == nil || e.refs > 0 {
				continue
			}
			if victim == nil || e.lastUse < victim.lastUse {
				victim, victimID = e, id
			}
		}
		if victim == nil {
			return // everything resident is pinned
		}
		s.resident -= victim.arena.Bytes()
		victim.arena.close()
		victim.arena = nil
		s.evictions++
		if s.cfg.Dir == "" {
			// No backing file: eviction is deletion.
			delete(s.entries, victimID)
		}
	}
}

// dropLocked forgets entry e and its resident arena.
func (s *Store) dropLocked(id string, e *entry) {
	if e.arena != nil {
		s.resident -= e.arena.Bytes()
		e.arena.close()
		e.arena = nil
	}
	if s.entries[id] == e {
		delete(s.entries, id)
	}
}

// Get returns the Info for a committed arena or open upload.
func (s *Store) Get(id string) (Info, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[id]; ok {
		return s.infoLocked(e), true
	}
	if u, ok := s.uploads[id]; ok {
		return u.info(), true
	}
	return Info{}, false
}

// List returns every resource, committed arenas first, each list sorted
// by ID for stable output.
func (s *Store) List() []Info {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Info, 0, len(s.entries)+len(s.uploads))
	for _, e := range s.entries {
		out = append(out, s.infoLocked(e))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	ups := make([]Info, 0, len(s.uploads))
	for _, u := range s.uploads {
		ups = append(ups, u.info())
	}
	sort.Slice(ups, func(i, j int) bool { return ups[i].ID < ups[j].ID })
	return append(out, ups...)
}

func (s *Store) infoLocked(e *entry) Info {
	in := e.meta
	in.Refs = e.refs
	if e.arena != nil {
		in.Resident = true
		in.Mapped = e.arena.Mapped()
	}
	return in
}

// Delete removes a committed arena (and its backing file) or aborts an
// open upload. A referenced arena is refused with ErrReferenced.
func (s *Store) Delete(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if u, ok := s.uploads[id]; ok {
		u.discard()
		delete(s.uploads, id)
		return nil
	}
	e, ok := s.entries[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if e.refs > 0 {
		return fmt.Errorf("%w: %s held by %d jobs", ErrReferenced, id, e.refs)
	}
	s.dropLocked(id, e)
	if s.cfg.Dir != "" {
		os.Remove(filepath.Join(s.cfg.Dir, id+arenaFileExt)) //nolint:errcheck
	}
	return nil
}
