package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// FuzzStoreRecover writes an arbitrary entry file, and optionally a
// blob under its content address, into a store directory, opens it
// with a one-nanosecond MaxAge and puts one entry so GC runs. The entry
// bytes are tried sealed in a valid envelope, so they get past the
// checksum, and raw. Nothing may panic; the entry must either serve
// and verify or be quarantined; and a sentinel file beside the store
// directory must survive untouched.
func FuzzStoreRecover(f *testing.F) {
	v1, err := os.ReadFile(filepath.Join("testdata", "v1", v1Key+".json"))
	if err != nil {
		f.Fatal(err)
	}
	var env envelope
	if err := json.Unmarshal(v1, &env); err != nil {
		f.Fatal(err)
	}
	raw := env.Entry
	blob, err := os.ReadFile(filepath.Join("testdata", "v1", v1Blob))
	if err != nil {
		f.Fatal(err)
	}
	edit := func(pairs ...string) []byte {
		return []byte(strings.NewReplacer(pairs...).Replace(string(raw)))
	}
	wrongSum, err := json.Marshal(envelope{Entry: raw, Sum: sumHex([]byte("other"))})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v1, blob, false)                                // the older format, as written
	f.Add([]byte(raw), blob, true)                        // the same entry, sealed here
	f.Add(v1[:len(v1)/2], blob, false)                    // torn envelope
	f.Add(wrongSum, blob, false)                          // wrong sum
	f.Add(edit(`"key":"6c9d`, `"key":"7c9d`), blob, true) // wrong key
	f.Add(edit(`"version":1`, `"version":2`), blob, true) // wrong version
	// An artifact record naming the sentinel at its size, and one with
	// a sum too short to name a blob.
	f.Add(edit(`"file":"`+v1Blob+`"`, `"file":"../../sentinel"`, `"bytes":2680`, `"bytes":8`), []byte("sentinel"), true)
	f.Add(edit(`"sum":"7c658042c6268582b338bbbdd1219e623338d35bd507edef304995f7ab9e62a2"`, `"sum":"7c65"`,
		v1Blob, v1Key+".art-7c65"), blob, true)
	f.Fuzz(func(t *testing.T, entry, blob []byte, sealed bool) {
		root := t.TempDir()
		dir := filepath.Join(root, "store")
		sentinel := filepath.Join(root, "sentinel")
		if err := os.WriteFile(sentinel, []byte("sentinel"), 0o644); err != nil {
			t.Fatal(err)
		}
		objects := filepath.Join(dir, objectsDir)
		if err := os.MkdirAll(objects, 0o755); err != nil {
			t.Fatal(err)
		}
		file := entry
		if sealed && json.Valid(entry) {
			file = seal(t, entry)
		}
		if err := os.WriteFile(filepath.Join(objects, v1Key+".json"), file, 0o644); err != nil {
			t.Fatal(err)
		}
		if len(blob) > 0 {
			if err := os.WriteFile(filepath.Join(objects, artifactFile(v1Key, sumHex(blob))), blob, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		opts := testOpts(dir)
		opts.MaxAge = time.Nanosecond
		s := Open(opts)
		st := s.Stats()
		if st.Entries+st.Quarantined != 1 || st.Degraded {
			t.Fatalf("open: stats %+v, want the entry served or quarantined", st)
		}
		if st.Entries == 1 {
			e, ok := s.Get(v1Key)
			switch {
			case !ok && s.Stats().Quarantined != 1:
				t.Fatal("recovered entry neither served nor quarantined on read")
			case ok && (e.Key != v1Key || e.Version != entryVersion):
				t.Fatalf("served entry claims key %q version %d", e.Key, e.Version)
			}
			for name, a := range e.Artifacts {
				if !validKey(a.Sum) || a.File != artifactFile(v1Key, a.Sum) {
					t.Fatalf("served artifact %s names %q with sum %q", name, a.File, a.Sum)
				}
				if b, ok := s.Artifact(v1Key, name); ok && sumHex(b) != a.Sum {
					t.Fatalf("artifact %s served bytes that do not match its sum", name)
				}
			}
		}
		if err := s.Put(key(0), Entry{Result: resultDoc("gc")}, nil); err != nil {
			t.Fatal(err)
		}
		if b, err := os.ReadFile(sentinel); err != nil || string(b) != "sentinel" {
			t.Fatalf("sentinel beside the store: %q, %v; want it untouched", b, err)
		}
	})
}
