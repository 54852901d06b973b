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
// BinaryUnmarshaler). An entry is one file: an optional manifest (opaque
// bytes describing the entry's inputs) and the value's payload under one
// frame and one checksum, written atomically (temp file + rename);
// corruption, truncation or version skew degrades to a cache miss, never
// to a wrong result. Total size is bounded by an LRU cap: reads refresh an
// entry's mtime, and writes evict least-recently-used entries.
package simcache

import (
	"encoding"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// SchemaVersion names the on-disk entry layout and the keying scheme. Bump
// it whenever either changes incompatibly; old entries then miss and are
// eventually evicted. Version 2 replaced the JSON key encoding with the
// binary one in Key; version 3 moved the manifest from a sidecar file into
// the entry's frame.
const SchemaVersion = "depburst-simcache/3"

// DefaultMaxBytes is the default LRU size cap (4 GiB).
const DefaultMaxBytes = 4 << 30

// entryExt is the filename extension of cache entries; everything else in
// the directory (temp files, stray content) is ignored by Get and eviction.
const entryExt = ".sce"

// Entry frame: magic, format version, manifest length, payload length, one
// CRC-32 over manifest‖payload, then the manifest and the payload.
var entryMagic = [4]byte{'D', 'B', 'S', 'C'}

const entryVersion uint32 = 2

const headerSize = 4 + 4 + 8 + 8 + 4

// Stats counts store traffic since Open.
type Stats struct {
	Hits, Misses, Puts, Evictions uint64
	// PutErrors counts Put and PutMeta calls that returned an error: a
	// value that would not encode, or a write the directory refused.
	PutErrors uint64
}

// Store is one cache directory. It is safe for concurrent use by multiple
// goroutines; concurrent processes sharing a directory are safe too, since
// entries are immutable once renamed into place.
type Store struct {
	dir      string
	maxBytes int64

	// warn reports the store's first failed write.
	warn sync.Once

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

// Get decodes the entry for key into out and reports whether it was
// served, ignoring any manifest the entry carries. Every failure mode —
// absent, truncated, corrupted, or written by an incompatible format
// version — returns false; damaged entries, and entries out rejects, are
// deleted so they stop occupying the budget. out should decode into a
// scratch value and assign itself only on success, as *sim.Result does, so
// a miss leaves it untouched.
func (s *Store) Get(key string, out encoding.BinaryUnmarshaler) bool {
	_, ok := s.GetMeta(key, out)
	return ok
}

// GetMeta is Get that also returns the entry's manifest (empty when it was
// written without one). One read of one file serves both, under one
// checksum.
func (s *Store) GetMeta(key string, out encoding.BinaryUnmarshaler) ([]byte, bool) {
	path := s.path(key)
	raw, err := os.ReadFile(path)
	if err != nil {
		s.count(func(st *Stats) { st.Misses++ })
		return nil, false
	}
	meta, payload, ok := unframe(raw)
	if !ok || out.UnmarshalBinary(payload) != nil {
		os.Remove(path) // damaged, foreign or rejected: purge, best effort
		s.count(func(st *Stats) { st.Misses++ })
		return nil, false
	}
	// Refresh recency for the LRU cap, best effort.
	now := time.Now() //depburst:allow determinism -- LRU recency stamp; cache hits return byte-identical payloads regardless
	os.Chtimes(path, now, now)
	s.count(func(st *Stats) { st.Hits++ })
	return meta, true
}

// header returns the frame header of an entry holding meta and payload.
func header(meta, payload []byte) [headerSize]byte {
	var hdr [headerSize]byte
	copy(hdr[:4], entryMagic[:])
	binary.LittleEndian.PutUint32(hdr[4:8], entryVersion)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(len(meta)))
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(len(payload)))
	binary.LittleEndian.PutUint32(hdr[24:28], crc32.Update(crc32.ChecksumIEEE(meta), crc32.IEEETable, payload))
	return hdr
}

// unframe validates the framing and checksum of a raw entry and returns
// its manifest and payload.
func unframe(raw []byte) (meta, payload []byte, ok bool) {
	if len(raw) < headerSize || [4]byte(raw[:4]) != entryMagic ||
		binary.LittleEndian.Uint32(raw[4:8]) != entryVersion {
		return nil, nil, false
	}
	m := binary.LittleEndian.Uint64(raw[8:16])
	n := binary.LittleEndian.Uint64(raw[16:24])
	body := raw[headerSize:]
	if m > uint64(len(body)) || n != uint64(len(body))-m {
		return nil, nil, false
	}
	if binary.LittleEndian.Uint32(raw[24:28]) != crc32.ChecksumIEEE(body) {
		return nil, nil, false
	}
	return body[:m:m], body[m:], true
}

// Put is PutMeta without a manifest.
func (s *Store) Put(key string, val encoding.BinaryMarshaler) error {
	return s.PutMeta(key, val, nil)
}

// PutMeta encodes val and installs it under key, with manifest meta (nil:
// none), as one entry. The entry is staged in a temp file in the same
// directory and renamed into place, so readers (including other processes)
// only ever see complete entries. Every failure is counted in
// Stats.PutErrors, and the store's first is reported on stderr.
func (s *Store) PutMeta(key string, val encoding.BinaryMarshaler, meta []byte) error {
	err := s.put(key, val, meta)
	if err != nil {
		s.count(func(st *Stats) { st.PutErrors++ })
		s.warn.Do(func() {
			fmt.Fprintf(os.Stderr, "%v (the cache's first failed write; later ones are only counted)\n", err)
		})
	}
	return err
}

func (s *Store) put(key string, val encoding.BinaryMarshaler, meta []byte) error {
	payload, err := val.MarshalBinary()
	if err != nil {
		return fmt.Errorf("simcache: encode: %w", err)
	}
	if err := s.install(s.path(key), meta, payload); err != nil {
		return err
	}
	s.count(func(st *Stats) { st.Puts++ })
	return s.evictOver()
}

// install frames meta and payload and renames the entry into place
// atomically.
func (s *Store) install(dst string, meta, payload []byte) error {
	hdr := header(meta, payload)
	tmp, err := os.CreateTemp(s.dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("simcache: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	for _, b := range [][]byte{hdr[:], meta, payload} {
		if _, err = tmp.Write(b); err != nil {
			tmp.Close()
			return fmt.Errorf("simcache: write: %w", err)
		}
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("simcache: %w", err)
	}
	if err := os.Rename(tmp.Name(), dst); err != nil {
		return fmt.Errorf("simcache: install: %w", err)
	}
	return nil
}

// walk lists the directory's entries and their byte total. Temp and
// foreign files are not entries, and an entry removed between the listing
// and its stat is skipped.
func (s *Store) walk() ([]fs.FileInfo, int64, error) {
	des, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, 0, err
	}
	var ents []fs.FileInfo
	var total int64
	for _, de := range des {
		if filepath.Ext(de.Name()) != entryExt {
			continue
		}
		if info, err := de.Info(); err == nil {
			ents = append(ents, info)
			total += info.Size()
		}
	}
	return ents, total, nil
}

// Keys returns the content keys of the live entries, sorted, so corpus
// scans are deterministic regardless of directory order.
func (s *Store) Keys() ([]string, error) {
	ents, _, err := s.walk()
	if err != nil {
		return nil, err
	}
	keys := make([]string, len(ents))
	for i, e := range ents {
		keys[i] = strings.TrimSuffix(e.Name(), entryExt)
	}
	sort.Strings(keys)
	return keys, nil
}

// Size walks the directory and returns the live entry count and byte total.
func (s *Store) Size() (entries int, bytes int64, err error) {
	ents, total, err := s.walk()
	return len(ents), total, err
}

// evictOver enforces the LRU cap: while the directory exceeds maxBytes,
// remove the least recently used entries (oldest mtime; Get refreshes it).
func (s *Store) evictOver() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	ents, total, err := s.walk()
	if err != nil || total <= s.maxBytes {
		return err
	}
	sort.Slice(ents, func(i, j int) bool { return ents[i].ModTime().Before(ents[j].ModTime()) })
	for _, e := range ents {
		if total <= s.maxBytes {
			break
		}
		if os.Remove(filepath.Join(s.dir, e.Name())) == nil {
			total -= e.Size()
			s.stats.Evictions++
		}
	}
	return nil
}

func (s *Store) count(f func(*Stats)) {
	s.mu.Lock()
	f(&s.stats)
	s.mu.Unlock()
}
