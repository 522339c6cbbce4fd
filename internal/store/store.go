// Package store is the durable content-addressed result store under
// the job service: sha256 spec key → result JSON plus optional named
// artifact blobs, engineered for crash-safety end to end. Every write goes
// through the atomicio temp-file + fsync + rename + parent-dir-fsync
// discipline; every read re-verifies the recorded content hash and
// quarantines (never deletes, never crashes on) corrupt or torn
// entries; Open runs a recovery scan that sweeps orphaned temp files
// and rebuilds the catalog from what actually survived. Transient IO
// errors are retried with capped exponential backoff; persistent disk
// failure flips the store into a degraded memory-only mode that keeps
// serving the current process instead of taking the service down.
//
// The package is service control plane in the repo's layering: no
// goroutines, no force-loop work; one mutex serializes all state, so
// callers get a consistent catalog without their own locking.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"sdcmd/internal/atomicio"
)

// On-disk layout under Options.Dir:
//
//	objects/<key>.json        entry envelope — the commit point
//	objects/<key>.art-<sum16> artifact blobs, committed before the entry
//	quarantine/<name>.corrupt corrupt/torn files moved aside, never deleted
//
// An entry file is a JSON envelope {"entry": <raw entry>, "sum":
// "<sha256 of the raw entry bytes>"}; artifacts record their own
// sha256 in the entry. Artifact files are content-addressed (the sum
// is in the filename), so replacing an entry writes new artifact files
// and switches to them atomically with the entry rename — a crash
// anywhere leaves the old complete entry or the new one, never a mix.
const (
	objectsDir    = "objects"
	quarantineDir = "quarantine"
	entryVersion  = 1
)

// Options configures a Store. Zero fields take defaults.
type Options struct {
	// Dir is the store root (required).
	Dir string
	// MaxBytes bounds the on-disk footprint; beyond it entries are
	// evicted LRU by last hit (0 = unlimited).
	MaxBytes int64
	// MaxAge evicts entries whose creation is older (0 = keep forever).
	MaxAge time.Duration
	// FS is the filesystem; tests inject faults here (default the OS).
	FS atomicio.FS
	// Retries is the attempt budget per IO operation before the error
	// is treated as persistent (default 3).
	Retries int
	// RetryBackoff is the initial backoff between attempts, growing 4x
	// per retry and capped at MaxBackoff (default 1ms).
	RetryBackoff time.Duration
	// MaxBackoff caps the backoff growth (default 50ms).
	MaxBackoff time.Duration
	// Logf receives operational messages — quarantines, degradation,
	// recovery sweeps (default log.Printf).
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.FS == nil {
		o.FS = atomicio.OS
	}
	if o.Retries <= 0 {
		o.Retries = 3
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 50 * time.Millisecond
	}
	if o.Logf == nil {
		o.Logf = log.Printf
	}
	return o
}

// Counters are the store's lifetime totals, exposed as
// sdcserve_store_* metric families.
type Counters struct {
	// Puts counts entries committed to disk.
	Puts int `json:"puts"`
	// PutErrors counts Put calls that could not reach disk (the entry
	// is kept in memory instead).
	PutErrors int `json:"put_errors"`
	// Hits and Misses count Get outcomes.
	Hits   int `json:"hits"`
	Misses int `json:"misses"`
	// Quarantined counts corrupt or torn entries moved aside.
	Quarantined int `json:"quarantined"`
	// Evicted counts entries removed by the GC/retention policy.
	Evicted int `json:"evicted"`
	// Retries counts IO attempts that failed and were retried.
	Retries int `json:"retries"`
	// SweptTemps and SweptOrphans count recovery-scan removals:
	// leftover atomic-write temps and unreferenced artifact blobs.
	SweptTemps   int `json:"swept_temps"`
	SweptOrphans int `json:"swept_orphans"`
}

// Stats is a point-in-time snapshot for /metrics.
type Stats struct {
	Counters
	// Entries and Bytes describe the live catalog (disk entries plus,
	// in degraded mode, memory-only entries).
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
	// MemEntries counts entries held only in memory (degraded mode).
	MemEntries int `json:"mem_entries"`
	// Degraded reports memory-only mode after persistent disk failure.
	Degraded bool `json:"degraded"`
}

// memEntry is a degraded-mode entry: everything in RAM, nothing on
// disk. It keeps the current process serving while the disk is gone.
type memEntry struct {
	entry     Entry
	artifacts map[string][]byte
}

// Store is the durable result store. All methods are safe for
// concurrent use.
type Store struct {
	opts Options

	mu       sync.Mutex
	catalog  map[string]*catalogEntry
	mem      map[string]*memEntry
	bytes    int64
	counters Counters
	degraded bool
}

// Open builds a store over opts.Dir, creating the layout if needed and
// running the crash-recovery scan: orphaned temp files are swept,
// every surviving entry is re-read and hash-verified into the catalog,
// corrupt or torn ones are quarantined, and unreferenced artifact
// blobs are removed. Open never fails: if the disk cannot even be set
// up the store starts in degraded memory-only mode, because a result
// cache must not take the service down.
func Open(opts Options) *Store {
	opts = opts.withDefaults()
	s := &Store{
		opts:    opts,
		catalog: make(map[string]*catalogEntry),
		mem:     make(map[string]*memEntry),
	}
	if opts.Dir == "" {
		s.degrade(fmt.Errorf("store: no directory configured"))
		return s
	}
	for _, d := range []string{opts.Dir, s.objectsPath(), s.quarantinePath()} {
		if err := s.retry(func() error { return opts.FS.MkdirAll(d, 0o755) }); err != nil {
			s.degrade(fmt.Errorf("store: create %s: %w", d, err))
			return s
		}
	}
	s.recover()
	return s
}

func (s *Store) objectsPath() string    { return filepath.Join(s.opts.Dir, objectsDir) }
func (s *Store) quarantinePath() string { return filepath.Join(s.opts.Dir, quarantineDir) }

func (s *Store) entryPath(key string) string {
	return filepath.Join(s.objectsPath(), key+".json")
}

func (s *Store) artifactPath(file string) string {
	return filepath.Join(s.objectsPath(), file)
}

// degrade flips the store into memory-only mode. Sticky by design: a
// disk that failed a full retry budget is not trusted again within
// this process; a restart re-probes it.
func (s *Store) degrade(err error) {
	if !s.degraded {
		s.degraded = true
		s.opts.Logf("store: entering degraded memory-only mode: %v", err)
	}
}

// retry runs op under the capped-exponential-backoff policy and
// returns the last error once the attempt budget is spent.
func (s *Store) retry(op func() error) error {
	backoff := s.opts.RetryBackoff
	var err error
	for attempt := 0; attempt < s.opts.Retries; attempt++ {
		if err = op(); err == nil {
			return nil
		}
		if attempt < s.opts.Retries-1 {
			s.counters.Retries++
			//lint:ignore ctx-propagation durability over promptness: the bounded backoff (Retries × MaxBackoff) finishes the write even if the job's context was canceled mid-persist
			time.Sleep(backoff)
			backoff *= 4
			if backoff > s.opts.MaxBackoff {
				backoff = s.opts.MaxBackoff
			}
		}
	}
	return err
}

// envelope is the on-disk framing of an entry: the raw entry bytes
// plus their sha256, so a read can prove the entry is complete and
// untampered before decoding it.
type envelope struct {
	Entry json.RawMessage `json:"entry"`
	Sum   string          `json:"sum"`
}

func sumHex(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// validKey reports whether key looks like a sha256 content address
// (64 lowercase hex digits) — the only keys the layout accepts.
func validKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for _, c := range key {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Put commits an entry (and its artifact blobs) under key. Artifacts
// are written first, the entry envelope last — the entry rename is the
// commit point. On persistent disk failure the entry is kept in memory
// (degraded mode) and the disk error is returned for logging; the
// store itself keeps serving either way.
func (s *Store) Put(key string, e Entry, artifacts map[string][]byte) error {
	if !validKey(key) {
		return fmt.Errorf("store: invalid key %q", key)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e.Version = entryVersion
	e.Key = key
	if e.CreatedUnix == 0 {
		e.CreatedUnix = time.Now().Unix()
	}
	if s.degraded {
		s.putMemLocked(key, e, artifacts)
		return nil
	}
	prev := s.catalog[key]
	// The records describe this put's blobs only, never the caller's.
	e.Artifacts = nil
	if len(artifacts) > 0 {
		e.Artifacts = make(map[string]Artifact, len(artifacts))
	}
	var artBytes int64
	for name, data := range artifacts {
		sum := sumHex(data)
		art := Artifact{File: artifactFile(key, sum), Sum: sum, Bytes: int64(len(data))}
		data := data
		if err := s.retry(func() error {
			return atomicio.WriteFileData(s.opts.FS, s.artifactPath(art.File), data)
		}); err != nil {
			return s.putFailedLocked(key, e, artifacts, fmt.Errorf("store: artifact %s/%s: %w", key, name, err))
		}
		e.Artifacts[name] = art
		artBytes += art.Bytes
	}
	raw, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("store: encode entry %s: %w", key, err)
	}
	env, err := json.Marshal(envelope{Entry: raw, Sum: sumHex(raw)})
	if err != nil {
		return fmt.Errorf("store: encode envelope %s: %w", key, err)
	}
	if err := s.retry(func() error {
		return atomicio.WriteFileData(s.opts.FS, s.entryPath(key), env)
	}); err != nil {
		return s.putFailedLocked(key, e, artifacts, fmt.Errorf("store: entry %s: %w", key, err))
	}
	cat := &catalogEntry{
		artifacts: e.Artifacts,
		bytes:     int64(len(env)) + artBytes,
		created:   time.Unix(e.CreatedUnix, 0),
		lastHit:   time.Now(),
	}
	if prev != nil {
		s.bytes -= prev.bytes
		s.removeStaleArtifactsLocked(prev, cat)
	}
	s.catalog[key] = cat
	s.bytes += cat.bytes
	delete(s.mem, key)
	s.counters.Puts++
	s.gcLocked()
	return nil
}

// putFailedLocked records a persistent write failure: the store
// degrades, the entry is preserved in memory, and the error propagates
// for the caller's log line.
func (s *Store) putFailedLocked(key string, e Entry, artifacts map[string][]byte, err error) error {
	s.counters.PutErrors++
	s.degrade(err)
	s.putMemLocked(key, e, artifacts)
	return err
}

func (s *Store) putMemLocked(key string, e Entry, artifacts map[string][]byte) {
	cp := make(map[string][]byte, len(artifacts))
	for name, data := range artifacts {
		cp[name] = append([]byte(nil), data...)
	}
	s.mem[key] = &memEntry{entry: e, artifacts: cp}
}

// removeStaleArtifactsLocked drops artifact blobs the previous entry
// version referenced and the new one does not. Best-effort: a survivor
// is an orphan the next recovery scan sweeps.
func (s *Store) removeStaleArtifactsLocked(prev, next *catalogEntry) {
	keep := make(map[string]bool, len(next.artifacts))
	for _, a := range next.artifacts {
		keep[a.File] = true
	}
	for _, a := range prev.artifacts {
		if !keep[a.File] {
			_ = s.opts.FS.Remove(s.artifactPath(a.File))
		}
	}
}

// Get returns the entry for key, re-reading and hash-verifying it from
// disk on every call: a cache hit is only a hit if the bytes on disk
// still prove themselves. Corrupt or torn entries are quarantined and
// reported as misses; persistent read failure flips degraded mode.
func (s *Store) Get(key string) (Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if m, ok := s.mem[key]; ok {
		s.counters.Hits++
		return m.entry, true
	}
	if s.degraded {
		s.counters.Misses++
		return Entry{}, false
	}
	cat, ok := s.catalog[key]
	if !ok {
		s.counters.Misses++
		return Entry{}, false
	}
	e, err := s.readEntryLocked(key)
	if err != nil {
		s.counters.Misses++
		return Entry{}, false
	}
	cat.lastHit = time.Now()
	s.counters.Hits++
	return e, true
}

// readEntryLocked reads and verifies one entry file. IO errors burn
// the retry budget and then degrade the store; verification errors
// quarantine the entry. Either way the catalog entry is dropped on
// failure so later Gets answer from the surviving state.
func (s *Store) readEntryLocked(key string) (Entry, error) {
	var b []byte
	err := s.retry(func() error {
		var rerr error
		b, rerr = s.opts.FS.ReadFile(s.entryPath(key))
		return rerr
	})
	if err != nil {
		s.dropLocked(key)
		s.degrade(fmt.Errorf("store: read entry %s: %w", key, err))
		return Entry{}, err
	}
	e, err := decodeEntry(b, key)
	if err != nil {
		s.quarantineEntryLocked(key, err)
		return Entry{}, err
	}
	return e, nil
}

// decodeEntry unpacks and verifies an entry envelope.
func decodeEntry(b []byte, key string) (Entry, error) {
	var env envelope
	if err := json.Unmarshal(b, &env); err != nil {
		return Entry{}, fmt.Errorf("store: torn envelope: %w", err)
	}
	if got := sumHex(env.Entry); got != env.Sum {
		return Entry{}, fmt.Errorf("store: entry checksum %s != recorded %s", got, env.Sum)
	}
	var e Entry
	if err := json.Unmarshal(env.Entry, &e); err != nil {
		return Entry{}, fmt.Errorf("store: entry decode: %w", err)
	}
	if key != "" && e.Key != key {
		return Entry{}, fmt.Errorf("store: entry claims key %s, stored as %s", e.Key, key)
	}
	if e.Version != entryVersion {
		return Entry{}, fmt.Errorf("store: unsupported entry version %d", e.Version)
	}
	// The store names every blob itself, so a record naming any other
	// file (a path outside objects/, another entry's blob) is not one
	// this store wrote, and nothing may open or delete what it names.
	for name, a := range e.Artifacts {
		if !validKey(a.Sum) || a.File != artifactFile(e.Key, a.Sum) {
			return Entry{}, fmt.Errorf("store: artifact %s names file %q with sum %q", name, a.File, a.Sum)
		}
	}
	return e, nil
}

// artifactFile is the content-addressed name of a blob with the given
// sha256 under an entry key.
func artifactFile(key, sum string) string {
	return key + ".art-" + sum[:16]
}

// Artifact returns one named artifact blob of an entry, verifying its
// recorded sha256 before handing it out. A corrupt blob quarantines
// the whole entry (blob included) and reports a miss.
func (s *Store) Artifact(key, name string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if m, ok := s.mem[key]; ok {
		data, ok := m.artifacts[name]
		return data, ok
	}
	if s.degraded {
		return nil, false
	}
	cat, ok := s.catalog[key]
	if !ok {
		return nil, false
	}
	spec, ok := cat.artifacts[name]
	if !ok {
		return nil, false
	}
	var b []byte
	err := s.retry(func() error {
		var rerr error
		b, rerr = s.opts.FS.ReadFile(s.artifactPath(spec.File))
		return rerr
	})
	if err != nil {
		s.dropLocked(key)
		s.degrade(fmt.Errorf("store: read artifact %s/%s: %w", key, name, err))
		return nil, false
	}
	if got := sumHex(b); got != spec.Sum {
		s.quarantineEntryLocked(key, fmt.Errorf("store: artifact %s/%s checksum %s != recorded %s", key, name, got, spec.Sum))
		return nil, false
	}
	return b, true
}

// dropLocked forgets a catalog entry without touching its files.
func (s *Store) dropLocked(key string) {
	if cat, ok := s.catalog[key]; ok {
		s.bytes -= cat.bytes
		delete(s.catalog, key)
	}
}

// quarantineEntryLocked moves a corrupt entry's files into the
// quarantine directory. Nothing is deleted — the bytes stay available
// for offline inspection — and nothing here can fail the caller: a
// rename that will not go through is logged and the file left behind.
func (s *Store) quarantineEntryLocked(key string, cause error) {
	s.opts.Logf("store: quarantining entry %s: %v", key, cause)
	names := []string{key + ".json"}
	if cat, ok := s.catalog[key]; ok {
		names = append(names, artifactFilesSorted(cat.artifacts)...)
	}
	s.dropLocked(key)
	s.quarantineFilesLocked(names...)
	s.counters.Quarantined++
}

// quarantineFilesLocked moves object files aside as <name>.corrupt,
// suffixing a sequence number when a previous quarantine of the same
// name exists.
func (s *Store) quarantineFilesLocked(names ...string) {
	for _, name := range names {
		src := s.artifactPath(name)
		if _, err := s.opts.FS.Stat(src); err != nil {
			continue
		}
		dst := filepath.Join(s.quarantinePath(), name+".corrupt")
		for n := 2; ; n++ {
			if _, err := s.opts.FS.Stat(dst); err != nil {
				break
			}
			dst = filepath.Join(s.quarantinePath(), fmt.Sprintf("%s.corrupt-%d", name, n))
		}
		if err := s.opts.FS.Rename(src, dst); err != nil {
			s.opts.Logf("store: quarantine rename %s: %v", name, err)
		}
	}
	// Make the moves durable; a failure here only risks re-running the
	// same quarantine after a crash, which is idempotent.
	_ = atomicio.SyncDir(s.opts.FS, s.objectsPath())
	_ = atomicio.SyncDir(s.opts.FS, s.quarantinePath())
}

// recover is the startup scan: sweep temps, load + verify every entry,
// quarantine what fails, remove unreferenced artifact blobs.
func (s *Store) recover() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, dir := range []string{s.opts.Dir, s.objectsPath()} {
		n, err := atomicio.SweepTemps(s.opts.FS, dir, "")
		if err != nil {
			s.opts.Logf("store: temp sweep %s: %v", dir, err)
		}
		s.counters.SweptTemps += n
	}
	entries, err := s.opts.FS.ReadDir(s.objectsPath())
	if err != nil {
		s.degrade(fmt.Errorf("store: recovery scan: %w", err))
		return
	}
	referenced := make(map[string]bool)
	var artifactFiles []string
	for _, de := range entries {
		name := de.Name()
		if de.IsDir() || atomicio.IsTemp(name) {
			continue
		}
		switch {
		case strings.HasSuffix(name, ".json") && validKey(strings.TrimSuffix(name, ".json")):
			key := strings.TrimSuffix(name, ".json")
			s.recoverEntryLocked(key, referenced)
		case len(name) > 64 && validKey(name[:64]) && strings.HasPrefix(name[64:], ".art-"):
			artifactFiles = append(artifactFiles, name)
		default:
			// Unknown file: not ours to judge, leave it alone.
		}
	}
	for _, name := range artifactFiles {
		if referenced[name] {
			continue
		}
		// Committed blob with no committed entry: the crash hit between
		// artifact and entry write. The entry never existed; the blob is
		// disposable.
		if err := s.opts.FS.Remove(s.artifactPath(name)); err != nil {
			s.opts.Logf("store: orphan artifact %s: %v", name, err)
			continue
		}
		s.counters.SweptOrphans++
	}
	if len(s.catalog) > 0 || s.counters.SweptTemps > 0 || s.counters.SweptOrphans > 0 {
		s.opts.Logf("store: recovered %d entries (%d temps, %d orphans swept, %d quarantined)",
			len(s.catalog), s.counters.SweptTemps, s.counters.SweptOrphans, s.counters.Quarantined)
	}
}

// recoverEntryLocked loads one entry during the recovery scan.
func (s *Store) recoverEntryLocked(key string, referenced map[string]bool) {
	b, err := s.opts.FS.ReadFile(s.entryPath(key))
	if err != nil {
		// Unreadable at startup: quarantine rather than trust it later.
		s.quarantineEntryLocked(key, err)
		return
	}
	e, err := decodeEntry(b, key)
	if err != nil {
		s.quarantineEntryLocked(key, err)
		return
	}
	total := int64(len(b))
	for name, a := range e.Artifacts {
		fi, err := s.opts.FS.Stat(s.artifactPath(a.File))
		if err != nil || fi.Size() != a.Bytes {
			// A committed entry referencing a missing or resized blob is
			// torn state; out it goes.
			s.quarantineEntryLocked(key, fmt.Errorf("store: artifact %s/%s missing or resized", key, name))
			return
		}
		total += a.Bytes
	}
	lastHit := time.Unix(e.CreatedUnix, 0)
	if fi, err := s.opts.FS.Stat(s.entryPath(key)); err == nil {
		lastHit = fi.ModTime()
	}
	for _, a := range e.Artifacts {
		referenced[a.File] = true
	}
	s.catalog[key] = &catalogEntry{
		artifacts: e.Artifacts,
		bytes:     total,
		created:   time.Unix(e.CreatedUnix, 0),
		lastHit:   lastHit,
	}
	s.bytes += total
}

// Degraded reports memory-only mode (persistent disk failure).
func (s *Store) Degraded() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.degraded
}

// Stats snapshots counters and catalog totals.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Counters:   s.counters,
		Entries:    len(s.catalog) + len(s.mem),
		Bytes:      s.bytes,
		MemEntries: len(s.mem),
		Degraded:   s.degraded,
	}
}
