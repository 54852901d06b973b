package simcache

import (
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
			if err := s.Put(key, testPayload()); err != nil {
				t.Fatal(err)
			}
			tc.mutate(t, s.Dir())
			var got payload
			if s.Get(key, &got) {
				t.Fatal("damaged entry served as a hit")
			}
			// The damaged entry is purged, and a re-Put re-serves.
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
	if st := s.Stats(); st.Puts != 0 {
		t.Errorf("failed Put counted: %+v", st)
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

// meta is a stand-in for a surrogate training manifest.
type meta struct {
	Kind  string
	Bench string
	MHz   int64
}

func TestMetaRoundTrip(t *testing.T) {
	s := open(t, 0)
	key, _ := Key("truth", 1)
	if s.HasMeta(key) || s.GetMeta(key, &meta{}) {
		t.Fatal("meta served before PutMeta")
	}
	want := meta{Kind: "truth", Bench: "xalan", MHz: 1000}
	if err := s.PutMeta(key, want); err != nil {
		t.Fatal(err)
	}
	if !s.HasMeta(key) {
		t.Fatal("HasMeta false after PutMeta")
	}
	var got meta
	if !s.GetMeta(key, &got) {
		t.Fatal("GetMeta missed after PutMeta")
	}
	if got != want {
		t.Fatalf("meta round trip: got %+v, want %+v", got, want)
	}
}

func TestMetaCorruptionPurged(t *testing.T) {
	corruptions := map[string]func(raw []byte) []byte{
		"truncated": func(raw []byte) []byte { return raw[:len(raw)-3] },
		"badmagic":  func(raw []byte) []byte { raw[0] ^= 0xff; return raw },
		"badver":    func(raw []byte) []byte { raw[5] ^= 0x01; return raw },
		"flipped":   func(raw []byte) []byte { raw[len(raw)-1] ^= 0x01; return raw },
		"notjson":   func(raw []byte) []byte { return frame([]byte("{oops")) },
		"header":    func(raw []byte) []byte { return raw[:5] },
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			s := open(t, 0)
			key, _ := Key("truth", name)
			if err := s.PutMeta(key, meta{Kind: "truth"}); err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(s.metaPath(key))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(s.metaPath(key), corrupt(raw), 0o644); err != nil {
				t.Fatal(err)
			}
			if s.GetMeta(key, &meta{}) {
				t.Fatal("corrupted meta served")
			}
			if _, err := os.Stat(s.metaPath(key)); !os.IsNotExist(err) {
				t.Error("corrupted meta not purged")
			}
		})
	}
}

// frame wraps payload in valid entry framing, for tests that need a
// well-framed but semantically broken file.
func frame(payload []byte) []byte {
	s := &Store{}
	dir, err := os.MkdirTemp("", "simcache-frame-")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	s.dir = dir
	path := filepath.Join(dir, "f")
	if err := s.install(path, payload); err != nil {
		panic(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		panic(err)
	}
	return raw
}

func TestDamagedEntryPurgesMeta(t *testing.T) {
	s := open(t, 0)
	key, _ := Key("truth", 7)
	if err := s.Put(key, testPayload()); err != nil {
		t.Fatal(err)
	}
	if err := s.PutMeta(key, meta{Kind: "truth"}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.path(key), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if s.Get(key, &payload{}) {
		t.Fatal("damaged entry served")
	}
	if s.HasMeta(key) {
		t.Error("meta survived its damaged entry")
	}
}

func TestEvictionRemovesMeta(t *testing.T) {
	s := open(t, 0)
	var keys []string
	for i := 0; i < 4; i++ {
		k, _ := Key("entry", i)
		keys = append(keys, k)
		if err := s.Put(k, testPayload()); err != nil {
			t.Fatal(err)
		}
		if err := s.PutMeta(k, meta{Kind: "truth", MHz: int64(i)}); err != nil {
			t.Fatal(err)
		}
		mt := time.Now().Add(time.Duration(i-10) * time.Hour)
		if err := os.Chtimes(s.path(k), mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	_, total, err := s.Size()
	if err != nil {
		t.Fatal(err)
	}
	// Four entries fit exactly; the fifth Put overflows by one entry and
	// evicts exactly the oldest.
	s.maxBytes = total
	k, _ := Key("entry", 99)
	if err := s.Put(k, testPayload()); err != nil {
		t.Fatal(err)
	}
	if s.Get(keys[0], &payload{}) {
		t.Fatal("oldest entry not evicted")
	}
	if s.HasMeta(keys[0]) {
		t.Error("evicted entry's meta left behind")
	}
	for _, k := range keys[1:] {
		if !s.HasMeta(k) {
			t.Error("surviving entry lost its meta")
		}
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
	// Meta sidecars, temp droppings and foreign files are not entries.
	k, _ := Key("meta-only", 1)
	if err := s.PutMeta(k, meta{}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(s.dir, "README"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
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
