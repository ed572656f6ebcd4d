package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"webracer/internal/obs"
)

// openT opens a store in dir, failing the test on error.
func openT(t *testing.T, dir string, m *obs.Metrics, onEntry func(string, []byte)) *Store {
	t.Helper()
	s, err := Open(dir, m, onEntry)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

// body derives a distinct deterministic body for entry i.
func body(i int) []byte {
	return []byte(fmt.Sprintf(`{"id":"entry-%02d","payload":"%s"}`+"\n", i, strings.Repeat("x", i*7)))
}

// key derives entry i's key (hex-like, filesystem-safe, as serve produces).
func key(i int) string { return fmt.Sprintf("aabb%060d", i) }

// TestPutGetRoundTrip: bytes out are bytes in, and counters track.
func TestPutGetRoundTrip(t *testing.T) {
	m := obs.New()
	s := openT(t, t.TempDir(), m, nil)
	for i := 0; i < 5; i++ {
		if err := s.Put(key(i), body(i)); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	for i := 0; i < 5; i++ {
		b, ok := s.Get(key(i))
		if !ok || !bytes.Equal(b, body(i)) {
			t.Fatalf("Get %d: ok=%v body=%q", i, ok, b)
		}
	}
	if _, ok := s.Get("absent"); ok {
		t.Fatal("Get of absent key reported a hit")
	}
	snap := m.Snapshot()
	if snap["serve.store.puts"] != 5 || snap["serve.store.hits"] != 5 || snap["serve.store.misses"] != 1 {
		t.Fatalf("counters: %v", snap)
	}
	if s.Len() != 5 {
		t.Fatalf("Len = %d, want 5", s.Len())
	}
}

// TestCrashRecoveryBattery is the satellite battery: persist a
// population, then simulate every crash/corruption shape at once —
// truncated entries, flipped body bytes, a forged checksum, a renamed
// entry, a leftover temp file — restart, and assert (a) the quarantine
// count is exactly the number of damaged entries, (b) every surviving
// entry is byte-identical to what was written cold, and (c) the damaged
// keys read as misses, not errors or garbage.
func TestCrashRecoveryBattery(t *testing.T) {
	dir := t.TempDir()
	m := obs.New()
	s := openT(t, dir, m, nil)
	const n = 20
	for i := 0; i < n; i++ {
		if err := s.Put(key(i), body(i)); err != nil {
			t.Fatal(err)
		}
	}

	damage := map[string]bool{} // key → damaged
	mangle := func(i int, f func(path string, raw []byte)) {
		path := filepath.Join(dir, key(i))
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		f(path, raw)
		damage[key(i)] = true
	}
	// Truncation: a crash mid-flush of a non-atomic copy (or torn rsync).
	mangle(3, func(p string, raw []byte) { mustWrite(t, p, raw[:len(raw)/2]) })
	mangle(7, func(p string, raw []byte) { mustWrite(t, p, raw[:10]) })
	// Bit rot: one flipped byte in the body.
	mangle(11, func(p string, raw []byte) { raw[len(raw)-2] ^= 0x40; mustWrite(t, p, raw) })
	// Forged header: checksum replaced wholesale.
	mangle(13, func(p string, raw []byte) {
		lines := bytes.SplitN(raw, []byte("\n"), 3)
		lines[1] = []byte(strings.Repeat("0", 64))
		mustWrite(t, p, bytes.Join(lines, []byte("\n")))
	})
	// Misfiled entry: valid bytes under the wrong name (embedded key
	// disagrees with the filename — recovery must not trust filenames).
	if err := os.Rename(filepath.Join(dir, key(17)), filepath.Join(dir, key(17)+"ff")); err != nil {
		t.Fatal(err)
	}
	damage[key(17)] = true
	// Crash mid-write: a temp dropping that must be swept, not served.
	mustWrite(t, filepath.Join(dir, tmpPrefix+"crash"), []byte("partial"))

	// "Restart": a fresh Store over the same directory.
	m2 := obs.New()
	var recovered sync.Map
	s2 := openT(t, dir, m2, func(k string, b []byte) { recovered.Store(k, append([]byte(nil), b...)) })

	wantQuarantined := int64(len(damage))
	snap := m2.Snapshot()
	if snap["serve.store.quarantined"] != wantQuarantined {
		t.Fatalf("serve.store.quarantined = %d, want %d", snap["serve.store.quarantined"], wantQuarantined)
	}
	if snap["serve.store.recovered"] != int64(n-len(damage)) {
		t.Fatalf("serve.store.recovered = %d, want %d", snap["serve.store.recovered"], n-len(damage))
	}
	for i := 0; i < n; i++ {
		k := key(i)
		got, ok := s2.Get(k)
		if damage[k] {
			if ok {
				t.Errorf("damaged entry %d served: %q", i, got)
			}
			if _, warm := recovered.Load(k); warm {
				t.Errorf("damaged entry %d surfaced by recovery", i)
			}
			continue
		}
		// Byte-identical to the cold write, both via Get and via the
		// recovery callback.
		if !ok || !bytes.Equal(got, body(i)) {
			t.Errorf("survivor %d: ok=%v bytes differ", i, ok)
		}
		if warm, _ := recovered.Load(k); !bytes.Equal(warm.([]byte), body(i)) {
			t.Errorf("survivor %d: recovery callback bytes differ", i)
		}
	}
	// Quarantined files are preserved for inspection, not deleted.
	qents, err := os.ReadDir(filepath.Join(dir, quarantineDir))
	if err != nil || len(qents) != len(damage) {
		t.Fatalf("quarantine dir: %d files, err %v, want %d", len(qents), err, len(damage))
	}
	// Temp droppings are gone.
	if _, err := os.Stat(filepath.Join(dir, tmpPrefix+"crash")); !os.IsNotExist(err) {
		t.Fatalf("temp dropping survived recovery: %v", err)
	}
	// A damaged key is writable again and round-trips.
	if err := s2.Put(key(3), body(3)); err != nil {
		t.Fatal(err)
	}
	if got, ok := s2.Get(key(3)); !ok || !bytes.Equal(got, body(3)) {
		t.Fatal("re-Put after quarantine does not round-trip")
	}
}

// TestReadTimeQuarantine: corruption that appears after the startup scan
// (disk failing under a running service) is caught by the per-read
// checksum, quarantined, and reported as a miss.
func TestReadTimeQuarantine(t *testing.T) {
	dir := t.TempDir()
	m := obs.New()
	s := openT(t, dir, m, nil)
	if err := s.Put(key(1), body(1)); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, key(1)))
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	mustWrite(t, filepath.Join(dir, key(1)), raw)

	if _, ok := s.Get(key(1)); ok {
		t.Fatal("corrupt entry served")
	}
	if got := s.Quarantined(); got != 1 {
		t.Fatalf("Quarantined = %d, want 1", got)
	}
	// The miss is permanent until re-Put: the file moved to quarantine.
	if _, ok := s.Get(key(1)); ok {
		t.Fatal("quarantined entry resurrected")
	}
}

// TestRecoveryOrderDeterministic: the warm-up callback fires in sorted
// filename order, so LRU warm-up is reproducible across restarts.
func TestRecoveryOrderDeterministic(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, obs.New(), nil)
	keys := []string{key(9), key(2), key(5), key(0)}
	for i, k := range keys {
		if err := s.Put(k, body(i)); err != nil {
			t.Fatal(err)
		}
	}
	var order []string
	openT(t, dir, obs.New(), func(k string, _ []byte) { order = append(order, k) })
	want := append([]string(nil), keys...)
	sort.Strings(want)
	if len(order) != len(want) {
		t.Fatalf("recovered %d entries, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("recovery order %v, want %v", order, want)
		}
	}
}

// TestUnsafeKeysAreHashed: keys that cannot be filenames still round-trip
// (hashed names), and path-traversal keys never escape the store dir.
func TestUnsafeKeysAreHashed(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, obs.New(), nil)
	evil := []string{"../escape", "a/b", "", ".hidden", quarantineDir}
	for i, k := range evil {
		if err := s.Put(k, body(i)); err != nil {
			t.Fatalf("Put %q: %v", k, err)
		}
		if got, ok := s.Get(k); !ok || !bytes.Equal(got, body(i)) {
			t.Fatalf("round-trip %q failed", k)
		}
	}
	if _, err := os.Stat(filepath.Join(filepath.Dir(dir), "escape")); !os.IsNotExist(err) {
		t.Fatal("path-traversal key escaped the store directory")
	}
	// And they survive a restart like any other entry.
	n := 0
	openT(t, dir, obs.New(), func(string, []byte) { n++ })
	if n != len(evil) {
		t.Fatalf("recovered %d hashed-key entries, want %d", n, len(evil))
	}
}

// TestConcurrentPutGet: the store is safe under concurrent mixed traffic
// (the service reads from request goroutines while workers write).
func TestConcurrentPutGet(t *testing.T) {
	s := openT(t, t.TempDir(), obs.New(), nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 32; i++ {
				k := key(i % 10)
				if g%2 == 0 {
					if err := s.Put(k, body(i%10)); err != nil {
						t.Errorf("Put: %v", err)
					}
				} else if b, ok := s.Get(k); ok && !bytes.Equal(b, body(i%10)) {
					t.Errorf("Get %s: wrong bytes", k)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestNilStore: the nil *Store is a well-behaved no-op (the disabled
// persistence configuration).
func TestNilStore(t *testing.T) {
	var s *Store
	if err := s.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("k"); ok {
		t.Fatal("nil store hit")
	}
	if s.Len() != 0 || s.Quarantined() != 0 || s.Dir() != "" {
		t.Fatal("nil store accessors not zero")
	}
}

// mustWrite replaces a file's contents.
func mustWrite(t *testing.T, path string, b []byte) {
	t.Helper()
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}
