package simcache

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"
)

// payload is a stand-in for sim.Result: nested structs, slices, exact
// floats, and signed/unsigned scalars. Like any stored value it owns its
// encoding (JSON here; the store only frames and checksums the bytes).
type payload struct {
	Name    string
	Time    int64
	Energy  float64
	Series  []point
	Threads []string
}

type point struct {
	At    int64
	Value float64
}

func (p payload) MarshalBinary() ([]byte, error) { return json.Marshal(p) }

// UnmarshalBinary decodes into a scratch value and assigns it only on
// success, as the store expects of every value.
func (p *payload) UnmarshalBinary(b []byte) error {
	var tmp payload
	if err := json.Unmarshal(b, &tmp); err != nil {
		return err
	}
	*p = tmp
	return nil
}

// raw is a value whose encoding is the given bytes verbatim.
type raw []byte

func (b raw) MarshalBinary() ([]byte, error) { return b, nil }

// unencodable is a value whose encoding fails.
type unencodable struct{}

func (unencodable) MarshalBinary() ([]byte, error) { return nil, errors.New("no encoding") }

func testPayload() payload {
	return payload{
		Name:   "xalan",
		Time:   123_456_789_012,
		Energy: 0.1 + 0.2, // a value that JSON would not round-trip textually
		Series: []point{{1, 1.5}, {2, 2.25e-17}, {3, -0}},
		Threads: []string{
			"main", "worker-0", "worker-1",
		},
	}
}

func open(t *testing.T, maxBytes int64) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), maxBytes)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRoundTrip(t *testing.T) {
	s := open(t, 0)
	key, err := Key("truth", testPayload())
	if err != nil {
		t.Fatal(err)
	}
	want := testPayload()
	if err := s.Put(key, &want); err != nil {
		t.Fatal(err)
	}
	var got payload
	if !s.Get(key, &got) {
		t.Fatal("fresh entry missed")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip changed the value:\ngot  %+v\nwant %+v", got, want)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Puts != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 put", st)
	}
}

func TestAbsentKeyMisses(t *testing.T) {
	s := open(t, 0)
	var got payload
	if s.Get("0000000000000000000000000000000000000000000000000000000000000000", &got) {
		t.Fatal("absent key hit")
	}
	if st := s.Stats(); st.Misses != 1 {
		t.Errorf("misses = %d, want 1", st.Misses)
	}
}

// corrupt flips one byte at off (negative: from the end) in the sole cache
// entry under dir.
func corruptEntry(t *testing.T, dir string, off int64, mutate func([]byte)) string {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var path string
	for _, de := range des {
		if filepath.Ext(de.Name()) == entryExt {
			path = filepath.Join(dir, de.Name())
		}
	}
	if path == "" {
		t.Fatal("no cache entry found")
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if off < 0 {
		off += int64(len(raw))
	}
	if mutate != nil {
		mutate(raw)
	} else {
		raw[off] ^= 0xff
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCorruptionDegradesToMiss(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(t *testing.T, dir string)
	}{
		{"payload-bitflip", func(t *testing.T, dir string) {
			corruptEntry(t, dir, -1, nil)
		}},
		{"header-magic", func(t *testing.T, dir string) {
			corruptEntry(t, dir, 0, nil)
		}},
		{"version-skew", func(t *testing.T, dir string) {
			corruptEntry(t, dir, 0, func(raw []byte) { raw[4]++ })
		}},
		{"truncated-payload", func(t *testing.T, dir string) {
			path := corruptEntry(t, dir, 0, func([]byte) {})
			raw, _ := os.ReadFile(path)
			os.WriteFile(path, raw[:len(raw)/2], 0o644)
		}},
		{"truncated-header", func(t *testing.T, dir string) {
			path := corruptEntry(t, dir, 0, func([]byte) {})
			os.WriteFile(path, []byte{'D'}, 0o644)
		}},
		{"empty-file", func(t *testing.T, dir string) {
			path := corruptEntry(t, dir, 0, func([]byte) {})
			os.WriteFile(path, nil, 0o644)
		}},
		{"manifest-bitflip", func(t *testing.T, dir string) {
			corruptEntry(t, dir, headerSize+1, nil)
		}},
		{"meta-length-past-end", func(t *testing.T, dir string) {
			// The payload length wraps so that the two lengths still sum
			// to the body's, and the checksum still matches the body.
			corruptEntry(t, dir, 0, func(raw []byte) {
				m := uint64(len(raw))
				binary.LittleEndian.PutUint64(raw[8:16], m)
				binary.LittleEndian.PutUint64(raw[16:24], uint64(len(raw)-headerSize)-m)
			})
		}},
		{"truncated-manifest", func(t *testing.T, dir string) {
			path := corruptEntry(t, dir, 0, func([]byte) {})
			raw, _ := os.ReadFile(path)
			os.WriteFile(path, raw[:headerSize+len(testMeta)/2], 0o644)
		}},
		{"garbage-payload", func(t *testing.T, dir string) {
			// Valid framing around a payload the value's decoder
			// rejects: rewrite the entry from whole cloth with a
			// checksummed junk payload.
			path := corruptEntry(t, dir, 0, func([]byte) {})
			s, _ := Open(dir, 0)
			if err := s.Put(filepath.Base(path[:len(path)-len(entryExt)]), raw("not a payload struct")); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := open(t, 0)
			key, _ := Key("truth", tc.name)
			if err := s.PutMeta(key, testPayload(), testMeta); err != nil {
				t.Fatal(err)
			}
			tc.mutate(t, s.Dir())
			var got payload
			if s.Get(key, &got) {
				t.Fatal("damaged entry served as a hit")
			}
			if entries, _, _ := s.Size(); entries != 0 {
				t.Fatal("damaged entry not purged")
			}
			// A re-Put re-serves.
			if err := s.Put(key, testPayload()); err != nil {
				t.Fatal(err)
			}
			if !s.Get(key, &got) || !reflect.DeepEqual(got, testPayload()) {
				t.Fatal("store did not recover after re-Put")
			}
		})
	}
}

// TestPutEncodeErrorInstallsNothing checks that a value whose encoding
// fails is reported and leaves no entry behind.
func TestPutEncodeErrorInstallsNothing(t *testing.T) {
	s := open(t, 0)
	key, _ := Key("x")
	if err := s.Put(key, unencodable{}); err == nil {
		t.Fatal("Put of an unencodable value succeeded")
	}
	if entries, _, _ := s.Size(); entries != 0 {
		t.Errorf("failed Put left %d entries", entries)
	}
	if st := s.Stats(); st.Puts != 0 || st.PutErrors != 1 {
		t.Errorf("stats %+v; want no puts and one put error", st)
	}
}

func TestDamagedEntryPurged(t *testing.T) {
	s := open(t, 0)
	key, _ := Key("x")
	if err := s.Put(key, testPayload()); err != nil {
		t.Fatal(err)
	}
	corruptEntry(t, s.Dir(), -1, nil)
	var got payload
	s.Get(key, &got)
	if entries, _, _ := s.Size(); entries != 0 {
		t.Errorf("damaged entry still on disk (%d entries)", entries)
	}
}

func TestLRUEviction(t *testing.T) {
	// Entries are ~a few hundred bytes; cap the store so only a couple
	// fit, then verify oldest-mtime entries go first and recently-read
	// entries survive.
	s := open(t, 0)
	var keys []string
	for i := 0; i < 4; i++ {
		k, _ := Key("entry", i)
		keys = append(keys, k)
		if err := s.Put(k, testPayload()); err != nil {
			t.Fatal(err)
		}
		// Pin distinct, increasing mtimes so LRU order is unambiguous
		// regardless of filesystem timestamp granularity.
		mt := time.Now().Add(time.Duration(i-10) * time.Hour)
		if err := os.Chtimes(s.path(k), mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	_, total, err := s.Size()
	if err != nil {
		t.Fatal(err)
	}
	perEntry := total / 4

	// Touch the oldest entry via Get: it becomes the most recent.
	var got payload
	if !s.Get(keys[0], &got) {
		t.Fatal("entry 0 missed before eviction")
	}

	// Shrink the cap to two entries and trigger eviction with a Put.
	s.maxBytes = perEntry*3 + perEntry/2
	k, _ := Key("entry", 99)
	if err := s.Put(k, testPayload()); err != nil {
		t.Fatal(err)
	}

	for i, want := range map[int]bool{0: true, 1: false, 2: false, 3: true} {
		if got := s.Get(keys[i], &payload{}); got != want {
			t.Errorf("after eviction, entry %d present=%v, want %v", i, got, want)
		}
	}
	if s.Stats().Evictions == 0 {
		t.Error("no evictions recorded")
	}
}

func TestConcurrentPutGet(t *testing.T) {
	s := open(t, 0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key, _ := Key("concurrent", i%10)
				want := testPayload()
				want.Time = int64(i % 10)
				if err := s.Put(key, want); err != nil {
					t.Error(err)
					return
				}
				var got payload
				if s.Get(key, &got) && got.Name != want.Name {
					t.Errorf("goroutine %d read torn entry %+v", g, got)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open("", 0); err == nil {
		t.Error("Open(\"\") succeeded")
	}
}

func TestIgnoresForeignFiles(t *testing.T) {
	s := open(t, 0)
	if err := os.WriteFile(filepath.Join(s.Dir(), "README.txt"), []byte("hello"), 0o644); err != nil {
		t.Fatal(err)
	}
	key, _ := Key("x")
	if err := s.Put(key, testPayload()); err != nil {
		t.Fatal(err)
	}
	entries, _, err := s.Size()
	if err != nil {
		t.Fatal(err)
	}
	if entries != 1 {
		t.Errorf("Size counted foreign files: %d entries", entries)
	}
	// Eviction must not delete foreign files either.
	s.maxBytes = 1
	k2, _ := Key("y")
	s.Put(k2, testPayload())
	if _, err := os.Stat(filepath.Join(s.Dir(), "README.txt")); err != nil {
		t.Errorf("foreign file removed by eviction: %v", err)
	}
}

func ExampleStore() {
	dir, _ := os.MkdirTemp("", "simcache-example-")
	defer os.RemoveAll(dir)
	s, _ := Open(dir, 0)
	key, _ := Key(Fingerprint(payload{}), "truth", "xalan", 1000)
	s.Put(key, payload{Name: "xalan", Time: 42})
	var out payload
	fmt.Println(s.Get(key, &out), out.Time)
	// Output: true 42
}

// testMeta stands in for a surrogate training manifest: opaque bytes to
// the store.
var testMeta = []byte(`{"kind":"truth","bench":"xalan","mhz":1000}`)

// TestMetaRoundTrip: GetMeta returns the manifest PutMeta wrote beside the
// value, Get decodes the same entry identically, an entry Put without a
// manifest has an empty one, and each entry is one file.
func TestMetaRoundTrip(t *testing.T) {
	s := open(t, 0)
	key, _ := Key("truth", 1)
	if _, ok := s.GetMeta(key, &payload{}); ok {
		t.Fatal("manifest served before PutMeta")
	}
	want := testPayload()
	if err := s.PutMeta(key, want, testMeta); err != nil {
		t.Fatal(err)
	}
	var got, plain payload
	meta, ok := s.GetMeta(key, &got)
	if !ok || !bytes.Equal(meta, testMeta) {
		t.Fatalf("GetMeta = %q, %v; want %q", meta, ok, testMeta)
	}
	if !s.Get(key, &plain) || !reflect.DeepEqual(got, plain) || !reflect.DeepEqual(got, want) {
		t.Errorf("GetMeta decoded %+v, Get %+v, want %+v", got, plain, want)
	}
	bare, _ := Key("truth", 2)
	if err := s.Put(bare, want); err != nil {
		t.Fatal(err)
	}
	if meta, ok := s.GetMeta(bare, &got); !ok || len(meta) != 0 {
		t.Errorf("entry Put without a manifest: GetMeta = %q, %v", meta, ok)
	}
	des, err := os.ReadDir(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(des) != 2 {
		t.Errorf("two entries left %d files", len(des))
	}
}

// TestMetaCorruptionPurged: every damage to an entry with a manifest makes
// GetMeta a miss that returns no manifest and purges the file.
func TestMetaCorruptionPurged(t *testing.T) {
	corruptions := map[string]func(raw []byte) []byte{
		"truncated": func(raw []byte) []byte { return raw[:len(raw)-3] },
		"badmagic":  func(raw []byte) []byte { raw[0] ^= 0xff; return raw },
		"badver":    func(raw []byte) []byte { raw[5] ^= 0x01; return raw },
		"flipped":   func(raw []byte) []byte { raw[headerSize] ^= 0x01; return raw },
		// A sound frame whose payload the value's decoder (JSON, for the
		// test payload) rejects.
		"notjson": func(raw []byte) []byte { return frame(testMeta, []byte("{oops")) },
		"header":  func(raw []byte) []byte { return raw[:5] },
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			s := open(t, 0)
			key, _ := Key("truth", name)
			if err := s.PutMeta(key, testPayload(), testMeta); err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(s.path(key))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(s.path(key), corrupt(raw), 0o644); err != nil {
				t.Fatal(err)
			}
			if meta, ok := s.GetMeta(key, &payload{}); ok || meta != nil {
				t.Fatalf("corrupted entry served (manifest %q)", meta)
			}
			if _, err := os.Stat(s.path(key)); !os.IsNotExist(err) {
				t.Error("corrupted entry not purged")
			}
		})
	}
}

// frame returns the entry file holding meta and payload.
func frame(meta, payload []byte) []byte {
	hdr := header(meta, payload)
	return append(append(hdr[:], meta...), payload...)
}

// FuzzEntryFrame: unframe never panics on arbitrary bytes, and any entry it
// accepts re-frames from its manifest and payload to the same bytes, so
// the frame has one encoding and the checksum covers all of it. Its seeds
// (testdata/fuzz) are frames with and without a manifest, a version-1
// frame, truncations, and a manifest length past the end whose payload
// length wraps to match.
func FuzzEntryFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		meta, payload, ok := unframe(raw)
		if !ok {
			return
		}
		if again := frame(meta, payload); !bytes.Equal(again, raw) {
			t.Fatalf("accepted %x, which re-frames to %x", raw, again)
		}
	})
}

// TestSharedDirectoryStaysUnderCap: two stores on one directory take turns
// writing until each has written more than the cap; each Put's eviction
// walk counts the other store's entries too, so the directory ends within
// the cap.
func TestSharedDirectoryStaysUnderCap(t *testing.T) {
	dir := t.TempDir()
	probe, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	k, _ := Key("probe")
	if err := probe.Put(k, testPayload()); err != nil {
		t.Fatal(err)
	}
	_, perEntry, err := probe.Size()
	if err != nil {
		t.Fatal(err)
	}
	limit := 4*perEntry + perEntry/2
	a, errA := Open(dir, limit)
	b, errB := Open(dir, limit)
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	for i, written := 0, int64(0); written <= limit; i, written = i+1, written+perEntry {
		for j, s := range []*Store{a, b} {
			k, _ := Key("shared", i, j)
			if err := s.Put(k, testPayload()); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, total, err := a.Size(); err != nil || total > limit {
		t.Errorf("shared directory holds %d bytes, cap %d (%v)", total, limit, err)
	}
}

func TestKeysSortedLiveEntries(t *testing.T) {
	s := open(t, 0)
	want := map[string]bool{}
	for i := 0; i < 5; i++ {
		k, _ := Key("entry", i)
		if err := s.Put(k, testPayload()); err != nil {
			t.Fatal(err)
		}
		want[k] = true
	}
	// Temp droppings and foreign files are not entries.
	for _, name := range []string{".tmp-123", "README"} {
		if err := os.WriteFile(filepath.Join(s.dir, name), []byte("hi"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	keys, err := s.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != len(want) {
		t.Fatalf("Keys returned %d entries, want %d", len(keys), len(want))
	}
	for i, k := range keys {
		if !want[k] {
			t.Errorf("unexpected key %s", k)
		}
		if i > 0 && keys[i-1] >= k {
			t.Error("keys not sorted")
		}
	}
}
