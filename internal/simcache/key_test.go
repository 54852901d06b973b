package simcache

import (
	"encoding/binary"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"depburst/internal/dacapo"
	"depburst/internal/sim"
)

func mustKey(t *testing.T, parts ...any) string {
	t.Helper()
	k, err := Key(parts...)
	if err != nil {
		t.Fatalf("Key(%v): %v", parts, err)
	}
	return k
}

func ptr(v int64) *int64 { return &v }

type named struct{ V any }

type twinA struct{ X int64 }
type twinB struct{ X int64 }

type orderAB struct{ A, B int64 }
type orderBA struct{ B, A int64 }
type renamed struct{ A, C int64 }

type withPtr struct{ P *int64 }
type withPtrStr struct {
	P *int64
	S string
}
type withSlice struct{ S []int64 }

// TestKeyDiscriminates is the encoding's ambiguity wall: identical inputs
// share a key, and every pair below differs in what a simulation keyed by
// it could compute, so the pair must never share one.
func TestKeyDiscriminates(t *testing.T) {
	a := mustKey(t, "truth", testPayload())
	if b := mustKey(t, "truth", testPayload()); a != b {
		t.Error("identical inputs produced different keys")
	}
	mutated := testPayload()
	mutated.Time++
	negZero := math.Copysign(0, -1)
	pairs := []struct {
		name string
		a, b []any
	}{
		{"field value", []any{"truth", testPayload()}, []any{"truth", mutated}},
		{"run kind", []any{"truth", testPayload()}, []any{"chip", testPayload()}},
		{"signed zero", []any{0.0}, []any{negZero}},
		{"signed zero in field", []any{struct{ F float64 }{0}}, []any{struct{ F float64 }{negZero}}},
		{"int vs uint", []any{int64(1)}, []any{uint64(1)}},
		{"int vs uint all ones", []any{int64(-1)}, []any{uint64(math.MaxUint64)}},
		{"int widths", []any{int32(7)}, []any{int64(7)}},
		{"string boundaries in a slice", []any{[]string{"ab", "c"}}, []any{[]string{"a", "bc"}}},
		{"string boundaries across parts", []any{"ab", "c"}, []any{"a", "bc"}},
		{"nil vs empty slice", []any{[]int64(nil)}, []any{[]int64{}}},
		{"nil vs empty slice field", []any{withSlice{}}, []any{withSlice{S: []int64{}}}},
		{"nil vs zero pointer", []any{(*int64)(nil)}, []any{new(int64)}},
		{"nil vs zero pointer field", []any{withPtr{}}, []any{withPtr{P: new(int64)}}},
		// Without presence bytes the pointee's 8 bytes would read as the
		// string's length prefix and first 7 bytes.
		{"nil pointer vs pointee absorbing the next field",
			[]any{withPtrStr{S: "\x00\x00\x00\x00\x00\x00\x00\x02ab"}},
			[]any{withPtrStr{P: ptr(10), S: "ab"}}},
		{"nil vs zero interface", []any{named{}}, []any{named{V: 0}}},
		{"interface dynamic types", []any{named{V: twinA{1}}}, []any{named{V: twinB{1}}}},
		{"top-level struct types", []any{twinA{1}}, []any{twinB{1}}},
		{"field order", []any{orderAB{1, 2}}, []any{orderBA{1, 2}}},
		{"field names", []any{orderAB{1, 2}}, []any{renamed{1, 2}}},
		{"part count", []any{"x"}, []any{"x", nil}},
		{"array length", []any{[2]int64{1, 2}, [1]int64{3}}, []any{[1]int64{1}, [2]int64{2, 3}}},
	}
	for _, p := range pairs {
		if mustKey(t, p.a...) == mustKey(t, p.b...) {
			t.Errorf("%s: %v and %v share a key", p.name, p.a, p.b)
		}
	}
}

func TestFingerprintTracksSchema(t *testing.T) {
	type v1 struct{ A int64 }
	type v2 struct{ A, B int64 }
	type v1renamed struct{ B int64 }
	fp1, fp2, fp3 := Fingerprint(v1{}), Fingerprint(v2{}), Fingerprint(v1renamed{})
	if fp1 == fp2 {
		t.Error("added field did not change the fingerprint")
	}
	if fp1 == fp3 {
		t.Error("renamed field did not change the fingerprint")
	}
	if Fingerprint(v1{}) != fp1 {
		t.Error("fingerprint not deterministic")
	}
	// Recursive types must terminate.
	type node struct {
		Next *node
		V    int
	}
	if Fingerprint(node{}) == "" {
		t.Error("recursive type produced empty fingerprint")
	}
}

// TestKeyRejectsUnencodable: values with no canonical encoding are errors,
// wherever they sit in the input.
func TestKeyRejectsUnencodable(t *testing.T) {
	type cyclic struct{ Next *cyclic }
	loop := &cyclic{}
	loop.Next = loop
	cases := map[string]any{
		"nan":            math.NaN(),
		"+inf":           math.Inf(1),
		"-inf":           math.Inf(-1),
		"nan in field":   struct{ F float64 }{math.NaN()},
		"inf in slice":   []float32{1, float32(math.Inf(1))},
		"nan behind any": named{V: math.NaN()},
		"map":            map[string]int{"a": 1},
		"nil map field":  struct{ M map[string]int }{},
		"chan":           make(chan int),
		"func":           func() {},
		"complex":        complex(1, 2),
		"cycle":          loop,
	}
	for name, v := range cases {
		if _, err := Key("truth", v); err == nil || !strings.HasPrefix(err.Error(), "simcache: keying: ") {
			t.Errorf("%s: Key error %v, want a keying error", name, err)
		}
	}
}

// TestKeyConcurrentFirstUse: goroutines racing to fill the per-type cache
// for a new (here recursive) type all derive the same key.
func TestKeyConcurrentFirstUse(t *testing.T) {
	type list struct {
		V    int64
		Next *list
	}
	v := &list{1, &list{2, nil}}
	keys := make([]string, 8)
	var wg sync.WaitGroup
	for i := range keys {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			keys[i], _ = Key(v)
		}(i)
	}
	wg.Wait()
	for _, k := range keys {
		if k == "" || k != keys[0] {
			t.Fatalf("keys differ or failed: %q", keys)
		}
	}
	if k := mustKey(t, &list{1, &list{3, nil}}); k == keys[0] {
		t.Error("different lists share a key")
	}
}

// FuzzKey builds two benchmark specs from fuzz bytes and requires their
// keys to be equal exactly when every field is identical (floats by their
// bits). Specs that fail to key (NaN or ±Inf) are skipped.
func FuzzKey(f *testing.F) {
	f.Add([]byte("pmd"), []byte("pmd"))
	f.Add([]byte{}, []byte{0})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Add([]byte{0, 0x80, 0, 0, 0, 0, 0, 0, 0}, []byte{0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{2, 'a', 'b', 'c'}, []byte{1, 'a', 'b', 'c'})
	// Two specs that differ only in their last field's top byte.
	zeros := make([]byte, 1024)
	rest := zeros
	fillFromBytes(f, reflect.ValueOf(&dacapo.Spec{}).Elem(), &rest)
	n := len(zeros) - len(rest)
	last := append([]byte(nil), zeros[:n]...)
	last[n-1] = 1
	f.Add(zeros[:n], last)
	f.Fuzz(func(t *testing.T, a, b []byte) {
		var sa, sb dacapo.Spec
		fillFromBytes(t, reflect.ValueOf(&sa).Elem(), &a)
		fillFromBytes(t, reflect.ValueOf(&sb).Elem(), &b)
		ka, erra := Key(sa)
		kb, errb := Key(sb)
		if erra != nil || errb != nil {
			return
		}
		if same := identical(reflect.ValueOf(sa), reflect.ValueOf(sb)); same != (ka == kb) {
			t.Fatalf("identical=%v but keys equal=%v:\n%+v\n%+v", same, ka == kb, sa, sb)
		}
	})
}

// fillFromBytes sets every exported field of struct v from the front of
// data (zero once it runs out).
func fillFromBytes(t testing.TB, v reflect.Value, data *[]byte) {
	next := func(n int) []byte {
		out := make([]byte, n)
		k := copy(out, *data)
		*data = (*data)[k:]
		return out
	}
	for i := 0; i < v.NumField(); i++ {
		if !v.Type().Field(i).IsExported() {
			continue
		}
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Bool:
			f.SetBool(next(1)[0]&1 == 1)
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(binary.LittleEndian.Uint64(next(8))))
		case reflect.Float64:
			f.SetFloat(math.Float64frombits(binary.LittleEndian.Uint64(next(8))))
		case reflect.String:
			f.SetString(string(next(int(next(1)[0] % 8))))
		default:
			t.Fatalf("fillFromBytes: field %s has unhandled kind %s", v.Type().Field(i).Name, f.Kind())
		}
	}
}

// identical compares two structs of scalars field by field, floats by bits.
func identical(a, b reflect.Value) bool {
	for i := 0; i < a.NumField(); i++ {
		fa, fb := a.Field(i), b.Field(i)
		if fa.Kind() == reflect.Float64 {
			if math.Float64bits(fa.Float()) != math.Float64bits(fb.Float()) {
				return false
			}
		} else if fa.Interface() != fb.Interface() {
			return false
		}
	}
	return true
}

// BenchmarkKey measures one truth-run content key as the experiment Runner
// derives it: result fingerprint, codec version, run kind, the full machine
// configuration and the benchmark spec.
func BenchmarkKey(b *testing.B) {
	spec := dacapo.PMDScale()
	cfg := sim.DefaultConfig()
	spec.Configure(&cfg)
	fp := Fingerprint(sim.Result{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Key(fp, sim.CodecVersion, "truth", cfg, spec); err != nil {
			b.Fatal(err)
		}
	}
}
