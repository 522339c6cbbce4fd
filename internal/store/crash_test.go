package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// crashKey is the entry the whole matrix fights over.
var crashKey = strings.Repeat("c", 64)

func crashEntry(version string) (Entry, map[string][]byte) {
	e := Entry{Result: resultDoc(version)}
	return e, map[string][]byte{"checkpoint": []byte("ck-" + version)}
}

// putOld seeds a committed "old" version through a clean filesystem.
func putOld(t *testing.T, dir string) {
	t.Helper()
	s := Open(testOpts(dir))
	e, arts := crashEntry("old")
	if err := s.Put(crashKey, e, arts); err != nil {
		t.Fatalf("seed old version: %v", err)
	}
}

// countWriteOps replays the exact Put the matrix will crash, on a
// clean run, and reports how many calls each write-pipeline op makes —
// the set of injectable crash points.
func countWriteOps(t *testing.T) map[Op]int {
	t.Helper()
	dir := t.TempDir()
	putOld(t, dir)
	ffs := NewFaultFS(nil)
	opts := testOpts(dir)
	opts.FS = ffs
	opts.Retries = 1
	s := Open(opts)
	ffs.ResetCalls()
	e, arts := crashEntry("new")
	if err := s.Put(crashKey, e, arts); err != nil {
		t.Fatalf("clean replacement put: %v", err)
	}
	counts := make(map[Op]int, len(WriteOps))
	for _, op := range WriteOps {
		counts[op] = ffs.Calls(op)
	}
	return counts
}

// TestCrashMatrixRecovery is the durability acceptance test: the write
// pipeline replacing a committed entry is killed at every injectable
// crash point (every call of every write op turns into permanent disk
// death, modeling a process kill or yanked disk), then a fresh store
// opens the same directory and must recover a complete entry — the old
// version or the new one, with its result and artifact consistent with
// each other — never a torn mix, never a quarantine, never a leftover
// temp file.
func TestCrashMatrixRecovery(t *testing.T) {
	counts := countWriteOps(t)
	total := 0
	for _, op := range WriteOps {
		if counts[op] == 0 {
			t.Fatalf("clean run exercised no %v calls; matrix would silently skip that axis", op)
		}
		total += counts[op]
	}
	if total < 10 {
		t.Fatalf("only %d crash points discovered; the pipeline shrank suspiciously", total)
	}

	for _, op := range WriteOps {
		for call := 1; call <= counts[op]; call++ {
			op, call := op, call
			t.Run(op.String()+"-"+itoa(call), func(t *testing.T) {
				dir := t.TempDir()
				putOld(t, dir)

				ffs := NewFaultFS(nil)
				opts := testOpts(dir)
				opts.FS = ffs
				opts.Retries = 1 // a crash does not retry
				s := Open(opts)
				ffs.ResetCalls()
				ffs.Schedule(&Fault{Op: op, Call: call, Crash: true})
				e, arts := crashEntry("new")
				// The put may fail (crash before commit) or succeed (crash
				// after); both are legal — recovery is what is under test.
				_ = s.Put(crashKey, e, arts)

				// "Restart": a fresh store over the surviving bytes.
				s2 := Open(testOpts(dir))
				got, ok := s2.Get(crashKey)
				if !ok {
					t.Fatalf("entry lost after crash at %v call %d", op, call)
				}
				var doc struct {
					Result string `json:"result"`
				}
				if err := json.Unmarshal(got.Result, &doc); err != nil {
					t.Fatalf("recovered result unparseable: %v", err)
				}
				if doc.Result != "old" && doc.Result != "new" {
					t.Fatalf("recovered a torn result %q", doc.Result)
				}
				// The artifact must match the recovered version exactly:
				// an old entry with a new blob (or vice versa) is torn
				// state even though both halves verify alone.
				ck, ok := s2.Artifact(crashKey, "checkpoint")
				if !ok {
					t.Fatalf("recovered %q entry without its artifact", doc.Result)
				}
				if want := "ck-" + doc.Result; string(ck) != want {
					t.Fatalf("torn recovery: result %q with artifact %q", doc.Result, ck)
				}
				st := s2.Stats()
				if st.Quarantined != 0 {
					t.Errorf("crash at %v call %d quarantined %d entries; write crashes must never corrupt", op, call, st.Quarantined)
				}
				if st.Degraded {
					t.Error("recovered store started degraded on a healthy disk")
				}
				// No temps survive recovery.
				files, err := os.ReadDir(filepath.Join(dir, objectsDir))
				if err != nil {
					t.Fatal(err)
				}
				for _, f := range files {
					if strings.Contains(f.Name(), ".tmp-") {
						t.Errorf("temp file %s survived recovery", f.Name())
					}
				}
			})
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

// TestCrashDuringGetDegradesNotDies: disk death on the read path flips
// degraded mode and keeps answering, rather than crashing or blocking.
func TestCrashDuringGetDegradesNotDies(t *testing.T) {
	dir := t.TempDir()
	putOld(t, dir)
	ffs := NewFaultFS(nil)
	opts := testOpts(dir)
	opts.FS = ffs
	opts.Retries = 2
	s := Open(opts)
	ffs.FailEverything(nil)
	if _, ok := s.Get(crashKey); ok {
		t.Fatal("dead-disk read served a value")
	}
	if !s.Degraded() {
		t.Fatal("dead disk on read path did not degrade")
	}
	// Still serving: puts land in memory.
	if err := s.Put(crashKey, Entry{Result: resultDoc("mem")}, nil); err != nil {
		t.Errorf("degraded put: %v", err)
	}
	if e, ok := s.Get(crashKey); !ok || string(e.Result) != `{"result":"mem"}` {
		t.Error("degraded store stopped serving")
	}
}

// TestCrashMatrixTimingBudget keeps the matrix honest about retries:
// with Retries=1 a crashed put must not sit in backoff sleeps.
func TestCrashMatrixTimingBudget(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(nil)
	opts := testOpts(dir)
	opts.FS = ffs
	opts.Retries = 1
	opts.RetryBackoff = time.Second // would be visible if a retry slept
	s := Open(opts)
	ffs.FailEverything(nil)
	start := time.Now()
	_ = s.Put(crashKey, Entry{Result: resultDoc("x")}, nil)
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Errorf("single-attempt put took %v; retry budget leaked into crash path", d)
	}
}
