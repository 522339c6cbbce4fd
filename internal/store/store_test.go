package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// discardLog keeps test output clean; the messages themselves are
// asserted through counters.
func discardLog(string, ...any) {}

func testOpts(dir string) Options {
	return Options{Dir: dir, Logf: discardLog, RetryBackoff: time.Microsecond}
}

// key returns a distinct valid content address per index.
func key(i int) string {
	return strings.Repeat("0", 62) + string(rune('a'+i/10)) + string(rune('0'+i%10))
}

func resultDoc(s string) json.RawMessage {
	return json.RawMessage(`{"result":"` + s + `"}`)
}

func mustPut(t *testing.T, s *Store, k string, doc string, artifacts map[string][]byte) {
	t.Helper()
	if err := s.Put(k, Entry{Result: resultDoc(doc)}, artifacts); err != nil {
		t.Fatalf("put %s: %v", k, err)
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := Open(testOpts(dir))
	art := []byte("checkpoint-bytes")
	mustPut(t, s, key(1), "alpha", map[string][]byte{"checkpoint": art})

	e, ok := s.Get(key(1))
	if !ok {
		t.Fatal("fresh put not found")
	}
	if string(e.Result) != `{"result":"alpha"}` {
		t.Errorf("result %s", e.Result)
	}
	got, ok := s.Artifact(key(1), "checkpoint")
	if !ok || string(got) != string(art) {
		t.Errorf("artifact roundtrip: ok=%v %q", ok, got)
	}
	st := s.Stats()
	if st.Puts != 1 || st.Hits != 1 || st.Entries != 1 || st.Degraded {
		t.Errorf("stats %+v", st)
	}
	if st.Bytes <= 0 {
		t.Error("zero byte accounting")
	}
}

func TestGetQuarantinesCorruptEntry(t *testing.T) {
	dir := t.TempDir()
	s := Open(testOpts(dir))
	mustPut(t, s, key(2), "beta", nil)

	// Flip one byte of the committed entry file.
	path := filepath.Join(dir, objectsDir, key(2)+".json")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, ok := s.Get(key(2)); ok {
		t.Fatal("corrupt entry served")
	}
	st := s.Stats()
	if st.Quarantined != 1 || st.Misses != 1 {
		t.Errorf("stats %+v, want 1 quarantined, 1 miss", st)
	}
	if st.Degraded {
		t.Error("corruption degraded the store; only persistent IO failure should")
	}
	// The bytes moved to quarantine — never deleted.
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("corrupt entry still in objects/")
	}
	q, err := os.ReadDir(filepath.Join(dir, quarantineDir))
	if err != nil {
		t.Fatal(err)
	}
	if len(q) != 1 || !strings.HasSuffix(q[0].Name(), ".corrupt") {
		t.Errorf("quarantine dir: %v", q)
	}
	// Misses stay misses; no crash, no resurrection.
	if _, ok := s.Get(key(2)); ok {
		t.Error("quarantined entry served on second read")
	}
}

func TestArtifactCorruptionQuarantinesEntry(t *testing.T) {
	dir := t.TempDir()
	s := Open(testOpts(dir))
	mustPut(t, s, key(3), "gamma", map[string][]byte{"traj": []byte("frames")})
	e, ok := s.Get(key(3))
	if !ok {
		t.Fatal("entry missing")
	}
	art := e.Artifacts["traj"]
	path := filepath.Join(dir, objectsDir, art.File)
	if err := os.WriteFile(path, []byte("frameX"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Artifact(key(3), "traj"); ok {
		t.Fatal("corrupt artifact served")
	}
	if st := s.Stats(); st.Quarantined != 1 {
		t.Errorf("stats %+v, want quarantined 1", st)
	}
	if _, ok := s.Get(key(3)); ok {
		t.Error("entry with corrupt artifact still served")
	}
}

func TestRecoveryScanSweepsAndRebuilds(t *testing.T) {
	dir := t.TempDir()
	s := Open(testOpts(dir))
	mustPut(t, s, key(4), "delta", map[string][]byte{"ck": []byte("ckdata")})
	mustPut(t, s, key(5), "epsilon", nil)

	objects := filepath.Join(dir, objectsDir)
	// A crashed write leaves a temp; a crash between artifact and entry
	// commit leaves an unreferenced blob; a torn entry fails its sum.
	for name, content := range map[string]string{
		key(6) + ".json.tmp-123-9":       "half-written",
		key(7) + ".art-0011223344556677": "orphan blob",
		key(8) + ".json":                 `{"entry":{"key":"x"},"sum":"deadbeef"}`,
	} {
		if err := os.WriteFile(filepath.Join(objects, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s2 := Open(testOpts(dir))
	st := s2.Stats()
	if st.Entries != 2 {
		t.Errorf("recovered %d entries, want 2", st.Entries)
	}
	if st.SweptTemps != 1 {
		t.Errorf("swept %d temps, want 1", st.SweptTemps)
	}
	if st.SweptOrphans != 1 {
		t.Errorf("swept %d orphans, want 1", st.SweptOrphans)
	}
	if st.Quarantined != 1 {
		t.Errorf("quarantined %d, want 1 (torn entry)", st.Quarantined)
	}
	if e, ok := s2.Get(key(4)); !ok || string(e.Result) != `{"result":"delta"}` {
		t.Errorf("entry lost across restart: ok=%v", ok)
	}
	if b, ok := s2.Artifact(key(4), "ck"); !ok || string(b) != "ckdata" {
		t.Errorf("artifact lost across restart: ok=%v %q", ok, b)
	}
}

func TestTransientFaultIsRetried(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(nil)
	opts := testOpts(dir)
	opts.FS = ffs
	s := Open(opts)
	ffs.Schedule(&Fault{Op: OpSync, Call: 1})
	mustPut(t, s, key(9), "zeta", nil)
	st := s.Stats()
	if st.Degraded {
		t.Error("one transient fault degraded the store")
	}
	if st.Retries == 0 {
		t.Error("no retry recorded for the transient fault")
	}
	if _, ok := s.Get(key(9)); !ok {
		t.Error("entry lost after retried put")
	}
}

func TestPersistentFailureDegradesButKeepsServing(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(nil)
	opts := testOpts(dir)
	opts.FS = ffs
	opts.Retries = 2
	s := Open(opts)
	mustPut(t, s, key(10), "eta", nil)

	ffs.FailEverything(nil)
	err := s.Put(key(11), Entry{Result: resultDoc("theta")}, map[string][]byte{"a": []byte("x")})
	if err == nil {
		t.Fatal("put on dead disk reported success")
	}
	if !s.Degraded() {
		t.Fatal("dead disk did not degrade the store")
	}
	// The failed put is still served — from memory.
	e, ok := s.Get(key(11))
	if !ok || string(e.Result) != `{"result":"theta"}` {
		t.Errorf("degraded entry not served from memory: ok=%v", ok)
	}
	if b, ok := s.Artifact(key(11), "a"); !ok || string(b) != "x" {
		t.Errorf("degraded artifact not served: ok=%v %q", ok, b)
	}
	// Later puts go straight to memory and succeed.
	if err := s.Put(key(12), Entry{Result: resultDoc("iota")}, nil); err != nil {
		t.Errorf("degraded-mode put failed: %v", err)
	}
	if _, ok := s.Get(key(12)); !ok {
		t.Error("degraded-mode put not served")
	}
	// The entry count includes the memory entries so it stays honest.
	st := s.Stats()
	if st.PutErrors != 1 || st.MemEntries != 2 || st.Entries != 3 {
		t.Errorf("stats %+v, want 1 put error, 2 mem entries, 3 entries", st)
	}
}

func TestGCMaxBytesEvictsLRU(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts(dir)
	s := Open(opts)
	mustPut(t, s, key(13), "one", nil)
	entrySize := s.Stats().Bytes
	// Two entries fit, three do not.
	s.opts.MaxBytes = 2*entrySize + entrySize/2

	mustPut(t, s, key(14), "two", nil)
	// Touch the first entry so key(14) becomes the LRU victim.
	if _, ok := s.Get(key(13)); !ok {
		t.Fatal("warm-up get failed")
	}
	mustPut(t, s, key(15), "three", nil)

	st := s.Stats()
	if st.Evicted != 1 {
		t.Fatalf("evicted %d, want 1 (stats %+v)", st.Evicted, st)
	}
	if _, ok := s.Get(key(14)); ok {
		t.Error("LRU entry survived eviction")
	}
	for _, k := range []string{key(13), key(15)} {
		if _, ok := s.Get(k); !ok {
			t.Errorf("entry %s wrongly evicted", k)
		}
	}
	if st.Bytes > s.opts.MaxBytes {
		t.Errorf("footprint %d above cap %d", st.Bytes, s.opts.MaxBytes)
	}
}

func TestGCMaxAgeEvictsOld(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts(dir)
	opts.MaxAge = time.Hour
	s := Open(opts)
	old := Entry{Result: resultDoc("old"), CreatedUnix: time.Now().Add(-2 * time.Hour).Unix()}
	if err := s.Put(key(16), old, nil); err != nil {
		t.Fatal(err)
	}
	// GC runs after every Put.
	mustPut(t, s, key(17), "fresh", nil)
	if _, ok := s.Get(key(16)); ok {
		t.Error("expired entry survived GC")
	}
	if _, ok := s.Get(key(17)); !ok {
		t.Error("fresh entry evicted")
	}
	if st := s.Stats(); st.Evicted != 1 {
		t.Errorf("evicted %d, want 1", st.Evicted)
	}
}

func TestOpenWithDeadDiskStartsDegraded(t *testing.T) {
	ffs := NewFaultFS(nil)
	ffs.FailEverything(nil)
	opts := testOpts(t.TempDir())
	opts.FS = ffs
	opts.Retries = 2
	s := Open(opts)
	if !s.Degraded() {
		t.Fatal("store on dead disk not degraded")
	}
	// It still serves: puts land in memory, gets answer.
	if err := s.Put(key(23), Entry{Result: resultDoc("mem")}, nil); err != nil {
		t.Errorf("degraded put: %v", err)
	}
	if _, ok := s.Get(key(23)); !ok {
		t.Error("degraded store does not serve")
	}
}

func TestInvalidKeyRejected(t *testing.T) {
	s := Open(testOpts(t.TempDir()))
	for _, k := range []string{"", "short", strings.Repeat("Z", 64), strings.Repeat("a", 63) + "/"} {
		if err := s.Put(k, Entry{Result: resultDoc("x")}, nil); err == nil {
			t.Errorf("key %q accepted", k)
		}
	}
}

func TestPutReplaceSwitchesArtifactsAtomically(t *testing.T) {
	dir := t.TempDir()
	s := Open(testOpts(dir))
	mustPut(t, s, key(24), "v1", map[string][]byte{"ck": []byte("old-bytes")})
	mustPut(t, s, key(24), "v2", map[string][]byte{"ck": []byte("new-bytes")})
	e, ok := s.Get(key(24))
	if !ok || string(e.Result) != `{"result":"v2"}` {
		t.Fatalf("replacement not visible: ok=%v", ok)
	}
	if b, ok := s.Artifact(key(24), "ck"); !ok || string(b) != "new-bytes" {
		t.Errorf("artifact after replace: ok=%v %q", ok, b)
	}
	// The superseded blob is gone; exactly one entry + one blob remain.
	entries, err := os.ReadDir(filepath.Join(dir, objectsDir))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Errorf("objects/ holds %v, want entry + one blob", names)
	}
	if n := s.Stats().Entries; n != 1 {
		t.Errorf("entries %d, want 1", n)
	}
}

// TestPutWithoutArtifactsKeepsNoArtifactsMap: an entry put without
// artifacts keeps no artifact map, in its catalog record or on disk,
// even when the entry handed in carries the records of an earlier put
// (as one read back by Get does); the earlier blob is removed.
func TestPutWithoutArtifactsKeepsNoArtifactsMap(t *testing.T) {
	dir := t.TempDir()
	s := Open(testOpts(dir))
	mustPut(t, s, key(30), "plain", nil)
	mustPut(t, s, key(31), "with", map[string][]byte{"ck": []byte("x")})
	e, ok := s.Get(key(31))
	if !ok || len(e.Artifacts) != 1 {
		t.Fatalf("entry with artifact: found %v, artifacts %v", ok, e.Artifacts)
	}
	if err := s.Put(key(31), e, nil); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{key(30), key(31)} {
		if a := s.catalog[k].artifacts; a != nil {
			t.Errorf("catalog record of %s keeps an artifact map %v", k, a)
		}
		if e, ok := s.Get(k); !ok || e.Artifacts != nil {
			t.Errorf("entry %s: found %v, artifacts %v; want found, none", k, ok, e.Artifacts)
		}
	}
	files, err := os.ReadDir(filepath.Join(dir, objectsDir))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 {
		t.Errorf("objects/ holds %d files, want the two entries", len(files))
	}
}

// v1Key is the key of the entry under testdata/v1: a 3-cell, 20-step
// job's result as an earlier build of the service stored it, with the
// run metadata, telemetry snapshot and final-state checkpoint artifact
// it then wrote beside every result.
const (
	v1Key  = "6c9dc97f088675c7e085217928fe7121100f948c29e951821d74097971df1471"
	v1Blob = v1Key + ".art-7c658042c6268582"
)

// copyV1 copies the testdata/v1 entry and blob into dir's objects/.
func copyV1(t *testing.T, dir string) {
	t.Helper()
	objects := filepath.Join(dir, objectsDir)
	if err := os.MkdirAll(objects, 0o755); err != nil {
		t.Fatal(err)
	}
	files, err := os.ReadDir(filepath.Join("testdata", "v1"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		b, err := os.ReadFile(filepath.Join("testdata", "v1", f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(objects, f.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOlderEntryFormatServes: an entry in the older format opens,
// verifies and serves, artifact included, with nothing quarantined.
// Decoding ignores its meta and metrics fields; the checksum covers
// the raw bytes.
func TestOlderEntryFormatServes(t *testing.T) {
	dir := t.TempDir()
	copyV1(t, dir)
	s := Open(testOpts(dir))
	if st := s.Stats(); st.Entries != 1 || st.Quarantined != 0 || st.SweptOrphans != 0 || st.Degraded {
		t.Fatalf("open: stats %+v, want 1 entry, nothing quarantined or swept", st)
	}
	e, ok := s.Get(v1Key)
	if !ok {
		t.Fatal("older entry not served")
	}
	var res struct {
		Steps int `json:"steps"`
	}
	if err := json.Unmarshal(e.Result, &res); err != nil || res.Steps != 20 {
		t.Errorf("result %s: steps %d, err %v; want 20", e.Result, res.Steps, err)
	}
	ck, ok := s.Artifact(v1Key, "checkpoint")
	if !ok || sumHex(ck) != e.Artifacts["checkpoint"].Sum {
		t.Errorf("checkpoint artifact: found %v, %d bytes", ok, len(ck))
	}
	if st := s.Stats(); st.Quarantined != 0 || st.Hits != 1 {
		t.Errorf("after reads: stats %+v, want 1 hit, nothing quarantined", st)
	}
}

// seal frames raw entry bytes in a valid envelope.
func seal(t testing.TB, raw []byte) []byte {
	t.Helper()
	b, err := json.Marshal(envelope{Entry: raw, Sum: sumHex(raw)})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestEntryNamingForeignArtifactQuarantined: an entry whose checksum
// holds but whose artifact record names a file the store would not
// have named is quarantined at Open. Nothing reads or removes the file
// it names: trusted, a record naming "../../victim.txt" would serve that
// file's bytes, and the next Put's age GC would delete it.
func TestEntryNamingForeignArtifactQuarantined(t *testing.T) {
	blob := []byte("outside bytes")
	sum := sumHex(blob)
	for _, c := range []struct{ name, file, sum string }{
		{"outside objects", "../../victim.txt", sum},
		{"another key's blob", key(41) + ".art-" + sum[:16], sum},
		{"short sum", key(40) + ".art-" + sum[:4], sum[:4]},
	} {
		t.Run(c.name, func(t *testing.T) {
			root := t.TempDir()
			dir := filepath.Join(root, "store")
			victim := filepath.Join(root, "victim.txt")
			if err := os.WriteFile(victim, blob, 0o644); err != nil {
				t.Fatal(err)
			}
			objects := filepath.Join(dir, objectsDir)
			if err := os.MkdirAll(objects, 0o755); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(c.file, "/") {
				// The named file exists at the recorded size, so only its
				// name gives the record away.
				if err := os.WriteFile(filepath.Join(objects, c.file), blob, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			raw, err := json.Marshal(Entry{
				Version: entryVersion, Key: key(40), Result: resultDoc("x"),
				Artifacts:   map[string]Artifact{"checkpoint": {File: c.file, Sum: c.sum, Bytes: int64(len(blob))}},
				CreatedUnix: time.Now().Add(-2 * time.Hour).Unix(),
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(objects, key(40)+".json"), seal(t, raw), 0o644); err != nil {
				t.Fatal(err)
			}
			opts := testOpts(dir)
			opts.MaxAge = time.Hour
			s := Open(opts)
			if st := s.Stats(); st.Quarantined != 1 || st.Entries != 0 {
				t.Errorf("open: stats %+v, want the entry quarantined", st)
			}
			if b, ok := s.Artifact(key(40), "checkpoint"); ok {
				t.Errorf("artifact served: %q", b)
			}
			mustPut(t, s, key(42), "next", nil) // runs the age GC
			if b, err := os.ReadFile(victim); err != nil || string(b) != string(blob) {
				t.Errorf("file outside the store: %q, %v; want it untouched", b, err)
			}
		})
	}
}
