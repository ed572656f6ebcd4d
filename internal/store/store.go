// Package store is the crash-safe persistent half of webracerd's
// two-level result cache: a disk-backed content-addressed store whose
// entries survive restarts and can be rsync'd between nodes.
//
// The determinism contract (DESIGN.md "Service architecture") makes
// persistence sound the same way it makes the in-memory LRU sound: a
// result is a pure function of its key, so bytes written once are the
// bytes forever — there is no invalidation problem, only an integrity
// problem. The store therefore spends all of its machinery on integrity:
//
//   - Writes are atomic: the entry is written to a temp file in the same
//     directory, fsync'd, and renamed into place. A crash mid-write
//     leaves either the old entry or a temp file the next scan discards
//     — never a half-written entry served as truth.
//   - Every entry carries a SHA-256 checksum over its body, verified on
//     every read. Bit rot, truncation, or a torn rsync yields a
//     quarantined file and a cache miss — the service recomputes, it
//     does not crash and it does not serve garbage.
//   - Opening a store scans it: valid entries are surfaced to the caller
//     (webracerd warms its LRU from them), corrupt ones are moved to
//     quarantine/ for the operator, temp droppings are deleted.
//
// Entry format (version-prefixed so the layout can evolve):
//
//	webracer-store/1\n
//	<64 hex chars: SHA-256 of body>\n
//	<key>\n
//	<body bytes>
//
// The key is stored inside the entry — the filename is merely the key
// when it is filesystem-safe — so recovery never trusts filenames, and
// a file whose embedded key disagrees with its name is corruption, not
// an alias.
//
// Traffic is counted in the service registry under serve.store.*; all
// methods are safe for concurrent use.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"webracer/internal/obs"
)

// magic is the entry-format version line; bump it to retire every
// persisted entry at once when the layout changes.
const magic = "webracer-store/1"

// quarantineDir is the subdirectory corrupt entries are moved into,
// preserved for operator inspection rather than deleted.
const quarantineDir = "quarantine"

// tmpPrefix marks in-progress writes; Open deletes leftovers (a crash
// between create and rename).
const tmpPrefix = ".tmp-"

// Store is a disk-backed content-addressed result store rooted at one
// directory. Construct with Open; the zero Store is not usable, but a
// nil *Store accepts every method as a no-op miss, so callers can wire
// it unconditionally the way obs handles are wired.
type Store struct {
	dir string

	// mu serializes writers to one key and the quarantine path; reads
	// are lock-free (os.ReadFile of an immutable, atomically renamed
	// file).
	mu sync.Mutex

	hits, misses, puts, quarantined, recovered, errors *obs.Counter
	bytes, entries                                     *obs.Gauge

	sizeMu    sync.Mutex
	size      int64
	nEntries  int64
	nQuarants int64
}

// Open creates (if needed) and scans the store rooted at dir, counting
// traffic in m under serve.store.*. Valid entries are reported to onEntry
// (nil is allowed) — webracerd uses the callback to warm its in-memory
// LRU, making the pair a two-level cache. Corrupt entries are quarantined
// and counted; leftover temp files from interrupted writes are removed.
func Open(dir string, m *obs.Metrics, onEntry func(key string, body []byte)) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		dir:         dir,
		hits:        m.Counter("serve.store.hits"),
		misses:      m.Counter("serve.store.misses"),
		puts:        m.Counter("serve.store.puts"),
		quarantined: m.Counter("serve.store.quarantined"),
		recovered:   m.Counter("serve.store.recovered"),
		errors:      m.Counter("serve.store.errors"),
		bytes:       m.Gauge("serve.store.bytes"),
		entries:     m.Gauge("serve.store.entries"),
	}
	if err := s.recover(onEntry); err != nil {
		return nil, err
	}
	return s, nil
}

// Dir is the store's root directory.
func (s *Store) Dir() string {
	if s == nil {
		return ""
	}
	return s.dir
}

// Len is the number of valid entries currently on disk (0 for nil).
func (s *Store) Len() int {
	if s == nil {
		return 0
	}
	s.sizeMu.Lock()
	defer s.sizeMu.Unlock()
	return int(s.nEntries)
}

// Quarantined is the number of entries this process has quarantined
// (recovery scan plus read-time detections).
func (s *Store) Quarantined() int {
	if s == nil {
		return 0
	}
	s.sizeMu.Lock()
	defer s.sizeMu.Unlock()
	return int(s.nQuarants)
}

// Get returns the stored bytes for key. A missing entry is a plain miss;
// an entry that fails checksum or key verification is quarantined and
// reported as a miss — corruption degrades to recomputation, never to an
// error or bad bytes. Nil store: always a miss, uncounted.
func (s *Store) Get(key string) ([]byte, bool) {
	if s == nil {
		return nil, false
	}
	path := filepath.Join(s.dir, fileName(key))
	raw, err := readExact(path)
	if err != nil {
		s.misses.Inc()
		return nil, false
	}
	body, gotKey, err := decodeEntry(raw)
	if err != nil || gotKey != key {
		s.quarantine(path, raw)
		s.misses.Inc()
		return nil, false
	}
	s.hits.Inc()
	return body, true
}

// Put persists body under key atomically: temp file in the store
// directory, fsync, rename. An existing entry is replaced (bodies for
// one key are identical by construction, so a replace only matters after
// a quarantine). Errors are counted and returned; the caller treats the
// store as best-effort — a failed Put costs a future recomputation, not
// correctness. Nil store: a silent no-op.
func (s *Store) Put(key string, body []byte) error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	path := filepath.Join(s.dir, fileName(key))
	oldSize, existed := statSize(path)
	tmp, err := os.CreateTemp(s.dir, tmpPrefix+"*")
	if err != nil {
		s.errors.Inc()
		return fmt.Errorf("store: %w", err)
	}
	entry := encodeEntry(key, body)
	_, werr := tmp.Write(entry)
	if werr == nil {
		werr = tmp.Sync()
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp.Name(), path)
	}
	if werr != nil {
		_ = os.Remove(tmp.Name())
		s.errors.Inc()
		return fmt.Errorf("store: %w", werr)
	}
	s.puts.Inc()
	s.account(int64(len(entry))-oldSize, boolToDelta(!existed))
	return nil
}

// recover scans the store directory: temp droppings are deleted, corrupt
// entries quarantined, valid entries counted and surfaced via onEntry in
// sorted filename order (deterministic warm-up).
func (s *Store) recover(onEntry func(key string, body []byte)) error {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)
	for _, name := range names {
		path := filepath.Join(s.dir, name)
		if strings.HasPrefix(name, tmpPrefix) {
			_ = os.Remove(path)
			continue
		}
		raw, err := readExact(path)
		if err != nil {
			s.errors.Inc()
			continue
		}
		body, key, derr := decodeEntry(raw)
		if derr != nil || fileName(key) != name {
			s.quarantine(path, raw)
			continue
		}
		s.recovered.Inc()
		s.account(int64(len(raw)), 1)
		if onEntry != nil {
			onEntry(key, body)
		}
	}
	return nil
}

// quarantine moves a corrupt file into quarantine/ (overwriting a prior
// quarantine of the same name) so the operator can inspect it; the entry
// stops being servable either way.
func (s *Store) quarantine(path string, raw []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// The file may already be gone (a concurrent reader quarantined it);
	// only count the move that actually happens.
	if _, err := os.Stat(path); err != nil {
		return
	}
	qdir := filepath.Join(s.dir, quarantineDir)
	_ = os.MkdirAll(qdir, 0o755)
	if err := os.Rename(path, filepath.Join(qdir, filepath.Base(path))); err != nil {
		_ = os.Remove(path)
	}
	s.quarantined.Inc()
	s.account(-int64(len(raw)), -1)
	s.sizeMu.Lock()
	s.nQuarants++
	s.sizeMu.Unlock()
}

// account tracks on-disk footprint for the serve.store.bytes/entries
// gauges.
func (s *Store) account(deltaBytes, deltaEntries int64) {
	s.sizeMu.Lock()
	s.size += deltaBytes
	if s.size < 0 {
		s.size = 0
	}
	s.nEntries += deltaEntries
	if s.nEntries < 0 {
		s.nEntries = 0
	}
	s.bytes.Set(s.size)
	s.entries.Set(s.nEntries)
	s.sizeMu.Unlock()
}

// encodeEntry renders the on-disk format: magic, body checksum, key,
// body.
func encodeEntry(key string, body []byte) []byte {
	sum := sha256.Sum256(body)
	var buf bytes.Buffer
	buf.Grow(len(magic) + 1 + 64 + 1 + len(key) + 1 + len(body))
	buf.WriteString(magic)
	buf.WriteByte('\n')
	buf.WriteString(hex.EncodeToString(sum[:]))
	buf.WriteByte('\n')
	buf.WriteString(key)
	buf.WriteByte('\n')
	buf.Write(body)
	return buf.Bytes()
}

// readExact reads a whole entry file into a buffer of exactly its size.
// The body is the entry's tail, so the body decodeEntry returns has
// cap == len: a cache keeping it pins the entry's header besides the
// body, and nothing more.
func readExact(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	raw := make([]byte, fi.Size())
	if _, err := io.ReadFull(f, raw); err != nil {
		return nil, err
	}
	return raw, nil
}

// decodeEntry parses and verifies one on-disk entry, returning its body
// and embedded key. Any deviation — wrong magic, malformed header,
// checksum mismatch — is an error the caller turns into quarantine.
func decodeEntry(raw []byte) (body []byte, key string, err error) {
	rest, ok := cutLine(raw, magic)
	if !ok {
		return nil, "", fmt.Errorf("store: bad magic")
	}
	sumLine, rest, ok := nextLine(rest)
	if !ok || len(sumLine) != 64 {
		return nil, "", fmt.Errorf("store: bad checksum line")
	}
	keyLine, body, ok := nextLine(rest)
	if !ok {
		return nil, "", fmt.Errorf("store: bad key line")
	}
	sum := sha256.Sum256(body)
	if hex.EncodeToString(sum[:]) != string(sumLine) {
		return nil, "", fmt.Errorf("store: checksum mismatch")
	}
	return body, string(keyLine), nil
}

// cutLine strips an exact expected first line.
func cutLine(raw []byte, want string) ([]byte, bool) {
	line, rest, ok := nextLine(raw)
	if !ok || string(line) != want {
		return nil, false
	}
	return rest, true
}

// nextLine splits raw at the first newline.
func nextLine(raw []byte) (line, rest []byte, ok bool) {
	i := bytes.IndexByte(raw, '\n')
	if i < 0 {
		return nil, nil, false
	}
	return raw[:i], raw[i+1:], true
}

// fileName maps a key to its entry filename. Keys in this repo are hex
// SHA-256 strings, which are their own safe filenames; anything else is
// hashed so the store never writes outside its directory or collides
// with the temp/quarantine namespaces.
func fileName(key string) string {
	if isSafeName(key) {
		return key
	}
	sum := sha256.Sum256([]byte(key))
	return "k-" + hex.EncodeToString(sum[:])
}

// isSafeName reports whether key can be its own filename: non-empty,
// path-separator-free, no leading dot, and not the quarantine directory
// name.
func isSafeName(key string) bool {
	if key == "" || key == quarantineDir || key[0] == '.' {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		ok := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
			c == '-' || c == '_' || c == '.'
		if !ok {
			return false
		}
	}
	return true
}

// statSize returns a file's size and whether it exists.
func statSize(path string) (int64, bool) {
	fi, err := os.Stat(path)
	if err != nil {
		return 0, false
	}
	return fi.Size(), true
}

// boolToDelta maps "is a new entry" to the entries-gauge delta.
func boolToDelta(isNew bool) int64 {
	if isNew {
		return 1
	}
	return 0
}
