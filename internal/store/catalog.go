package store

import (
	"encoding/json"
	"errors"
	"io/fs"
	"sort"
	"time"
)

// Artifact records one named blob of an entry: its content-addressed
// filename under objects/, its sha256 and its size.
type Artifact struct {
	File  string `json:"file"`
	Sum   string `json:"sum"`
	Bytes int64  `json:"bytes"`
}

// Entry is the durable record stored per content key. Result is opaque
// JSON so the store does not depend on the service types above it.
type Entry struct {
	Version int    `json:"version"`
	Key     string `json:"key"`
	// Result is the job's result document.
	Result json.RawMessage `json:"result"`
	// Artifacts maps artifact name (e.g. "checkpoint") to its blob
	// record; the blobs live in their own files. Nil when the entry was
	// put without artifacts.
	Artifacts map[string]Artifact `json:"artifacts,omitempty"`
	// CreatedUnix is the commit time (seconds).
	CreatedUnix int64 `json:"created_unix"`
}

// catalogEntry is the in-memory index record of one stored entry.
type catalogEntry struct {
	artifacts map[string]Artifact
	// bytes is the on-disk footprint: entry file plus artifacts.
	bytes int64
	// created is the commit time; lastHit the most recent Get (file
	// mtime after a restart) — the LRU clock.
	created time.Time
	lastHit time.Time
}

// artifactFilesSorted returns the blob filenames of an artifact map in
// deterministic (sorted) order, so quarantine and eviction touch files
// in the same sequence on every run.
func artifactFilesSorted(arts map[string]Artifact) []string {
	files := make([]string, 0, len(arts))
	for _, a := range arts {
		files = append(files, a.File)
	}
	sort.Strings(files)
	return files
}

// gcLocked applies the retention policy; it runs after every Put:
// entries older than MaxAge go first, then LRU-by-last-hit eviction
// until the footprint fits MaxBytes.
func (s *Store) gcLocked() {
	if s.degraded {
		return
	}
	if s.opts.MaxAge > 0 {
		cutoff := time.Now().Add(-s.opts.MaxAge)
		for key, c := range s.catalog {
			if c.created.Before(cutoff) {
				s.evictLocked(key)
			}
		}
	}
	if s.opts.MaxBytes <= 0 {
		return
	}
	for s.bytes > s.opts.MaxBytes && len(s.catalog) > 0 {
		var lru string
		var oldest time.Time
		for key, c := range s.catalog {
			if lru == "" || c.lastHit.Before(oldest) ||
				(c.lastHit.Equal(oldest) && key < lru) {
				lru, oldest = key, c.lastHit
			}
		}
		s.evictLocked(lru)
		if s.degraded {
			return // eviction hit a dead disk; stop thrashing
		}
	}
}

// evictLocked removes one entry and its artifacts from disk and the
// catalog. GC deletion is the one sanctioned delete path (quarantine
// handles corruption; this handles policy).
func (s *Store) evictLocked(key string) {
	cat, ok := s.catalog[key]
	if !ok {
		return
	}
	files := []string{s.entryPath(key)}
	for _, name := range artifactFilesSorted(cat.artifacts) {
		files = append(files, s.artifactPath(name))
	}
	for _, p := range files {
		p := p
		err := s.retry(func() error {
			if err := s.opts.FS.Remove(p); err != nil && !errors.Is(err, fs.ErrNotExist) {
				return err
			}
			return nil
		})
		if err != nil {
			s.opts.Logf("store: gc remove %s: %v", p, err)
			s.degrade(err)
		}
	}
	s.dropLocked(key)
	s.counters.Evicted++
}
