// Package simcache is a persistent, disk-backed, content-addressed store
// for simulation results. Ground-truth and governed runs are pure functions
// of (machine configuration, benchmark spec, seed, governor parameters), so
// their results can be cached across processes: a warm rerun of the full
// experiment suite is pure deserialization and byte-identical to a cold run.
//
// Keys (Key) are SHA-256 digests of a schema-version string and a
// canonical binary encoding of the inputs, each part prefixed by its
// type's structural fingerprint, plus whatever the caller adds to pin the
// value's layout (a fingerprint of the result type and its codec
// version), so any change to the simulator's observable output families
// invalidates the cache implicitly. The same function names the
// surrogate's configuration groups. The store frames and checksums bytes;
// each value owns its encoding (encoding.BinaryMarshaler and
// BinaryUnmarshaler). Entries are self-checking (magic, version, payload
// checksum) and written atomically (temp file + rename); corruption,
// truncation or version skew degrades to a cache miss, never to a wrong
// result. Total size is bounded by an LRU cap: reads refresh an entry's
// mtime, and writes evict least-recently-used entries beyond the cap.
package simcache

import (
	"encoding"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// SchemaVersion names the on-disk entry layout and the keying scheme. Bump
// it whenever either changes incompatibly; old entries then miss and are
// eventually evicted. Version 2 replaced the JSON key encoding with the
// binary one in Key.
const SchemaVersion = "depburst-simcache/2"

// DefaultMaxBytes is the default LRU size cap (4 GiB).
const DefaultMaxBytes = 4 << 30

// entryExt is the filename extension of cache entries; everything else in
// the directory (temp files, stray content) is ignored by Get and eviction.
const entryExt = ".sce"

// metaExt is the filename extension of metadata sidecars: small framed JSON
// records describing the inputs of the entry with the same key. Sidecars
// make the corpus scannable — the content hash alone is not invertible back
// to the (config, spec) that produced an entry. They ride along with their
// entry: evicting or purging an entry removes its sidecar too, and a
// sidecar without a live entry is simply ignored.
const metaExt = ".scm"

// Entry header: magic, format version, payload length, payload CRC.
var entryMagic = [4]byte{'D', 'B', 'S', 'C'}

const entryVersion uint32 = 1

const headerSize = 4 + 4 + 8 + 4 // magic + version + length + crc32

// Stats counts store traffic since Open.
type Stats struct {
	Hits, Misses, Puts, Evictions uint64
}

// Store is one cache directory. It is safe for concurrent use by multiple
// goroutines; concurrent processes sharing a directory are safe too, since
// entries are immutable once renamed into place.
type Store struct {
	dir      string
	maxBytes int64

	mu sync.Mutex
	//depburst:guardedby mu
	stats Stats
}

// Open creates (if needed) and returns the store rooted at dir. maxBytes
// bounds the total size of entries; <= 0 selects DefaultMaxBytes.
func Open(dir string, maxBytes int64) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("simcache: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("simcache: %w", err)
	}
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	return &Store{dir: dir, maxBytes: maxBytes}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Stats returns a snapshot of the store's traffic counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

func (s *Store) path(key string) string {
	return filepath.Join(s.dir, key+entryExt)
}

func (s *Store) metaPath(key string) string {
	return filepath.Join(s.dir, key+metaExt)
}

// Get decodes the entry for key into out and reports whether it was
// served. Every failure mode — absent, truncated, corrupted, or written by
// an incompatible format version — returns false; damaged entries, and
// entries out rejects, are deleted (with their sidecars) so they stop
// occupying the budget. out should decode into a scratch value and assign
// itself only on success, as *sim.Result does, so a miss leaves it
// untouched.
func (s *Store) Get(key string, out encoding.BinaryUnmarshaler) bool {
	path := s.path(key)
	raw, err := os.ReadFile(path)
	if err != nil {
		s.count(func(st *Stats) { st.Misses++ })
		return false
	}
	payload, ok := checkEntry(raw)
	if !ok {
		os.Remove(path) // damaged or foreign: purge, best effort
		os.Remove(s.metaPath(key))
		s.count(func(st *Stats) { st.Misses++ })
		return false
	}
	if err := out.UnmarshalBinary(payload); err != nil {
		os.Remove(path)
		os.Remove(s.metaPath(key))
		s.count(func(st *Stats) { st.Misses++ })
		return false
	}
	// Refresh recency for the LRU cap, best effort.
	now := time.Now() //depburst:allow determinism -- LRU recency stamp; cache hits return byte-identical payloads regardless
	os.Chtimes(path, now, now)
	s.count(func(st *Stats) { st.Hits++ })
	return true
}

// checkEntry validates the framing and checksum of a raw entry and returns
// its payload.
func checkEntry(raw []byte) ([]byte, bool) {
	if len(raw) < headerSize {
		return nil, false
	}
	if [4]byte(raw[:4]) != entryMagic {
		return nil, false
	}
	if binary.LittleEndian.Uint32(raw[4:8]) != entryVersion {
		return nil, false
	}
	n := binary.LittleEndian.Uint64(raw[8:16])
	payload := raw[headerSize:]
	if uint64(len(payload)) != n {
		return nil, false
	}
	if binary.LittleEndian.Uint32(raw[16:20]) != crc32.ChecksumIEEE(payload) {
		return nil, false
	}
	return payload, true
}

// Put encodes val and installs it under key atomically: the entry is
// staged in a temp file in the same directory and renamed into place, so
// readers (including other processes) only ever see complete entries.
func (s *Store) Put(key string, val encoding.BinaryMarshaler) error {
	payload, err := val.MarshalBinary()
	if err != nil {
		return fmt.Errorf("simcache: encode: %w", err)
	}
	if err := s.install(s.path(key), payload); err != nil {
		return err
	}
	s.count(func(st *Stats) { st.Puts++ })
	return s.evictOver()
}

// install frames payload (magic, version, length, CRC) and renames it into
// place atomically.
func (s *Store) install(dst string, payload []byte) error {
	var hdr [headerSize]byte
	copy(hdr[:4], entryMagic[:])
	binary.LittleEndian.PutUint32(hdr[4:8], entryVersion)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(len(payload)))
	binary.LittleEndian.PutUint32(hdr[16:20], crc32.ChecksumIEEE(payload))

	tmp, err := os.CreateTemp(s.dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("simcache: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(hdr[:]); err == nil {
		_, err = tmp.Write(payload)
	}
	if err != nil {
		tmp.Close()
		return fmt.Errorf("simcache: write: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("simcache: %w", err)
	}
	if err := os.Rename(tmp.Name(), dst); err != nil {
		return fmt.Errorf("simcache: install: %w", err)
	}
	return nil
}

// PutMeta installs a metadata sidecar for key: a framed, checksummed JSON
// record of meta (struct fields in declaration order — no maps), written
// atomically like an entry. Sidecars are tiny and excluded from the LRU
// byte budget, but eviction and purge remove them together with their
// entry.
func (s *Store) PutMeta(key string, meta any) error {
	payload, err := json.Marshal(meta)
	if err != nil {
		return fmt.Errorf("simcache: meta encode: %w", err)
	}
	return s.install(s.metaPath(key), payload)
}

// GetMeta decodes the metadata sidecar for key into out and reports whether
// it was served. Absent, truncated, corrupted or version-skewed sidecars
// return false; damaged ones are purged, best effort.
func (s *Store) GetMeta(key string, out any) bool {
	path := s.metaPath(key)
	raw, err := os.ReadFile(path)
	if err != nil {
		return false
	}
	payload, ok := checkEntry(raw)
	if !ok {
		os.Remove(path)
		return false
	}
	if err := json.Unmarshal(payload, out); err != nil {
		os.Remove(path)
		return false
	}
	return true
}

// HasMeta reports whether key has a metadata sidecar on disk (without
// validating it; GetMeta does that).
func (s *Store) HasMeta(key string) bool {
	_, err := os.Stat(s.metaPath(key))
	return err == nil
}

// Keys returns the content keys of the live entries, sorted, so corpus
// scans are deterministic regardless of directory order.
func (s *Store) Keys() ([]string, error) {
	des, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var keys []string
	for _, de := range des {
		name := de.Name()
		if filepath.Ext(name) != entryExt {
			continue
		}
		keys = append(keys, name[:len(name)-len(entryExt)])
	}
	sort.Strings(keys)
	return keys, nil
}

// Size scans the directory and returns the live entry count and byte total.
func (s *Store) Size() (entries int, bytes int64, err error) {
	des, err := os.ReadDir(s.dir)
	if err != nil {
		return 0, 0, err
	}
	for _, de := range des {
		if filepath.Ext(de.Name()) != entryExt {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		entries++
		bytes += info.Size()
	}
	return entries, bytes, nil
}

// evictOver enforces the LRU cap: while the directory exceeds maxBytes,
// remove the least recently used entries (oldest mtime; Get refreshes it).
func (s *Store) evictOver() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	des, err := os.ReadDir(s.dir)
	if err != nil {
		return err
	}
	type ent struct {
		path  string
		size  int64
		mtime time.Time
	}
	var ents []ent
	var total int64
	for _, de := range des {
		if filepath.Ext(de.Name()) != entryExt {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		ents = append(ents, ent{filepath.Join(s.dir, de.Name()), info.Size(), info.ModTime()})
		total += info.Size()
	}
	if total <= s.maxBytes {
		return nil
	}
	sort.Slice(ents, func(i, j int) bool { return ents[i].mtime.Before(ents[j].mtime) })
	for _, e := range ents {
		if total <= s.maxBytes {
			break
		}
		if os.Remove(e.path) == nil {
			total -= e.size
			s.stats.Evictions++
			// The sidecar goes with its entry; without one this is a no-op.
			os.Remove(e.path[:len(e.path)-len(entryExt)] + metaExt)
		}
	}
	return nil
}

func (s *Store) count(f func(*Stats)) {
	s.mu.Lock()
	f(&s.stats)
	s.mu.Unlock()
}
