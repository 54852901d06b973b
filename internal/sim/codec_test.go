package sim_test

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"depburst/internal/dacapo"
	"depburst/internal/sampling"
	"depburst/internal/sim"
	"depburst/internal/units"
)

// filled returns a Result with every field reachable from it set, by
// reflection, to a distinct non-zero value: every slice has two elements
// and every pointer is non-nil. The same call always builds the same value.
func filled(t testing.TB) sim.Result {
	t.Helper()
	var r sim.Result
	n := int64(0)
	fill(t, reflect.ValueOf(&r).Elem(), "Result", &n)
	return r
}

func fill(t testing.TB, v reflect.Value, path string, n *int64) {
	t.Helper()
	*n++
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		// Alternate signs and span several varint widths.
		x := *n<<(*n%40) + *n
		if *n%2 == 0 {
			x = -x
		}
		v.SetInt(x)
	case reflect.Uint64:
		v.SetUint(uint64(*n)<<(*n%50) + uint64(*n))
	case reflect.Float64:
		v.SetFloat(float64(*n) + 0.1)
	case reflect.String:
		v.SetString(fmt.Sprintf("%s#%d", path, *n))
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 2, 2)
		for i := 0; i < s.Len(); i++ {
			fill(t, s.Index(i), fmt.Sprintf("%s[%d]", path, i), n)
		}
		v.Set(s)
	case reflect.Pointer:
		p := reflect.New(v.Type().Elem())
		fill(t, p.Elem(), path, n)
		v.Set(p)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if !f.IsExported() {
				t.Fatalf("%s.%s is unexported: the codec cannot see it", path, f.Name)
			}
			fill(t, v.Field(i), path+"."+f.Name, n)
		}
	default:
		t.Fatalf("%s has kind %v, which the fill audit does not cover; extend it and the codec", path, v.Kind())
	}
}

func roundTrip(t testing.TB, r *sim.Result) sim.Result {
	t.Helper()
	data, err := r.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var out sim.Result
	if err := out.UnmarshalBinary(data); err != nil {
		t.Fatalf("decoding a fresh encoding: %v", err)
	}
	return out
}

// TestCodecCompleteness round-trips a Result whose every reachable field is
// set: a field added anywhere under Result without reaching the codec
// fails here.
func TestCodecCompleteness(t *testing.T) {
	want := filled(t)
	got := roundTrip(t, &want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip lost or swapped a field:\ngot  %+v\nwant %+v", got, want)
	}
	a, _ := want.MarshalBinary()
	b, _ := got.MarshalBinary()
	if !bytes.Equal(a, b) {
		t.Error("re-encoding a decoded result changed its bytes")
	}
}

// TestCodecEmptyResult round-trips the zero Result: empty slices and a nil
// Sampling stay nil.
func TestCodecEmptyResult(t *testing.T) {
	var want sim.Result
	if got := roundTrip(t, &want); !reflect.DeepEqual(got, want) {
		t.Fatalf("zero result round-tripped to %+v", got)
	}
}

// codecFixtures are four real runs of one scaled benchmark: full detail, a
// chip-wide governor, a per-core governor and sampled simulation.
var codecFixtures = sync.OnceValues(func() (map[string]*sim.Result, error) {
	spec, err := dacapo.ByName("pmd.scale")
	if err != nil {
		return nil, err
	}
	spec = spec.Scaled(0.25)
	run := func(setup func(m *sim.Machine), cfgFn func(*sim.Config)) (*sim.Result, error) {
		cfg := sim.DefaultConfig()
		spec.Configure(&cfg)
		if cfgFn != nil {
			cfgFn(&cfg)
		}
		m := sim.New(cfg)
		if setup != nil {
			setup(m)
		}
		res, err := m.Run(dacapo.New(spec))
		return &res, err
	}
	chip := func(m *sim.Machine) {
		m.SetGovernor(func(m *sim.Machine, s sim.QuantumSample) units.Freq {
			if m.Freq() == 1000 {
				return 3000
			}
			return 1000
		})
	}
	perCore := func(m *sim.Machine) {
		step := 0
		m.SetCoreGovernor(func(m *sim.Machine, s sim.QuantumSample) []units.Freq {
			step++
			fs := make([]units.Freq, len(s.PerCore))
			for i := range fs {
				fs[i] = units.Freq(1000 * (1 + (i+step/3)%4))
			}
			return fs
		})
	}
	sampled := func(cfg *sim.Config) { cfg.Sampling = sampling.DefaultPolicy() }
	out := map[string]*sim.Result{}
	for name, args := range map[string]struct {
		setup func(*sim.Machine)
		cfgFn func(*sim.Config)
	}{"truth": {}, "chip": {setup: chip}, "percore": {setup: perCore}, "sampled": {cfgFn: sampled}} {
		res, err := run(args.setup, args.cfgFn)
		if err != nil {
			return nil, fmt.Errorf("%s run: %w", name, err)
		}
		out[name] = res
	}
	return out, nil
})

func fixtures(t testing.TB) map[string]*sim.Result {
	t.Helper()
	fx, err := codecFixtures()
	if err != nil {
		t.Fatal(err)
	}
	return fx
}

// TestCodecMatchesGob is the oracle: on real results of every run family,
// the codec's round trip equals the round trip through encoding/gob, the
// reflective encoder the cache used before.
func TestCodecMatchesGob(t *testing.T) {
	fx := fixtures(t)
	if fx["truth"].Sampling != nil || fx["sampled"].Sampling == nil {
		t.Fatal("fixtures lack their sampling contrast")
	}
	if fx["chip"].Transitions == 0 || fx["percore"].Transitions == 0 {
		t.Fatal("governed fixtures made no DVFS transitions")
	}
	for _, name := range []string{"truth", "chip", "percore", "sampled"} {
		t.Run(name, func(t *testing.T) {
			res := fx[name]
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(res); err != nil {
				t.Fatal(err)
			}
			var viaGob sim.Result
			if err := gob.NewDecoder(&buf).Decode(&viaGob); err != nil {
				t.Fatal(err)
			}
			if got := roundTrip(t, res); !reflect.DeepEqual(got, viaGob) {
				t.Fatal("codec round trip differs from the gob round trip")
			}
		})
	}
}

// TestCodecDecodeAllocs pins the decoder's allocations to a constant plus
// one string per thread name and mark label: they must not grow with the
// number of epochs or samples.
func TestCodecDecodeAllocs(t *testing.T) {
	res := fixtures(t)["truth"]
	data, err := res.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var out sim.Result
	allocs := testing.AllocsPerRun(20, func() {
		if err := out.UnmarshalBinary(data); err != nil {
			t.Fatal(err)
		}
	})
	limit := 8 + len(res.Threads) + len(res.Marks)
	if allocs > float64(limit) {
		t.Errorf("decoding %d epochs / %d samples took %.0f allocations, want <= %d",
			len(res.Epochs), len(res.Samples), allocs, limit)
	}
}

// badEncodings derives inputs the decoder must reject from one valid
// encoding of a result without Sampling: every proper prefix, a trailing
// byte, an unknown version, a presence byte that is not 0 or 1, plus a
// count far beyond the input, an overlong varint and a counter mask with
// a bit past the last field.
func badEncodings(valid []byte) map[string][]byte {
	bool2 := append([]byte(nil), valid...)
	bool2[len(bool2)-1] = 2 // the Sampling presence byte
	bad := map[string][]byte{
		"empty":       {},
		"trailing":    append(append([]byte(nil), valid...), 0),
		"version":     append([]byte{sim.CodecVersion + 1}, valid[1:]...),
		"bool-not-01": bool2,
		"huge-count":  {sim.CodecVersion, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f},
		"bad-varint":  {sim.CodecVersion, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01},
		// Header fields all zero, one thread whose counter mask is 1<<12.
		"counter-mask": append(append(make([]byte, 0, 40), sim.CodecVersion),
			append(make([]byte, 18), 1, 0, 0, 0, 0, 0, 0x80, 0x20, 0, 0, 0, 0, 0, 0, 0, 0)...),
	}
	for n := 1; n < len(valid); n++ {
		bad[fmt.Sprintf("prefix-%d", n)] = valid[:n]
	}
	return bad
}

// TestCodecFailureLeavesReceiver checks that rejected input is an error
// and leaves the receiver exactly as it was.
func TestCodecFailureLeavesReceiver(t *testing.T) {
	src := filled(t)
	src.Sampling = nil
	valid, err := src.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range badEncodings(valid) {
		got := filled(t)
		if err := got.UnmarshalBinary(data); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
		if !reflect.DeepEqual(got, filled(t)) {
			t.Errorf("%s: failed decode modified the receiver", name)
		}
	}
}

// sameResult reports whether a and b are deeply equal, comparing the float
// fields by their bits so a NaN equals itself.
func sameResult(a, b *sim.Result) bool {
	if (a.Sampling == nil) != (b.Sampling == nil) {
		return false
	}
	ac, bc := *a, *b
	if a.Sampling != nil {
		ra, rb := *a.Sampling, *b.Sampling
		for _, f := range [][2]*float64{
			{&ra.Policy.Tolerance, &rb.Policy.Tolerance},
			{&ra.Policy.SafetyFactor, &rb.Policy.SafetyFactor},
			{&ra.ErrorBound, &rb.ErrorBound},
		} {
			if math.Float64bits(*f[0]) != math.Float64bits(*f[1]) {
				return false
			}
			*f[0], *f[1] = 0, 0
		}
		ac.Sampling, bc.Sampling = &ra, &rb
	}
	return reflect.DeepEqual(ac, bc)
}

// TestSummaryMatchesResult decodes the head of real results of every run
// family, and of the empty result: it equals the Summary of the full decode.
func TestSummaryMatchesResult(t *testing.T) {
	cases := map[string]*sim.Result{"empty": {}}
	for name, res := range fixtures(t) {
		cases[name] = res
	}
	for name, res := range cases {
		t.Run(name, func(t *testing.T) {
			data, err := res.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			var full sim.Result
			if err := full.UnmarshalBinary(data); err != nil {
				t.Fatal(err)
			}
			var head sim.Summary
			if err := head.UnmarshalBinary(data); err != nil {
				t.Fatal(err)
			}
			if head != full.Summary() || head != res.Summary() {
				t.Fatalf("head %+v, full decode's summary %+v", head, full.Summary())
			}
		})
	}
}

// scalarLeaves records the path and type of every field reachable from t
// through struct fields alone: slices and pointers lead to the repeated
// and optional sections behind the head.
func scalarLeaves(t reflect.Type, path string, out map[string]reflect.Type) {
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		switch p := path + f.Name; f.Type.Kind() {
		case reflect.Struct:
			scalarLeaves(f.Type, p+".", out)
		case reflect.Slice, reflect.Pointer:
		default:
			out[p] = f.Type
		}
	}
}

// fieldAt returns the field of v at a dotted path.
func fieldAt(v reflect.Value, path string) reflect.Value {
	for _, name := range strings.Split(path, ".") {
		v = v.FieldByName(name)
	}
	return v
}

// TestSummaryCoversHead audits the head by reflection: Summary has exactly
// the scalar fields of Result (same paths, same types), Summary() copies
// each one, the head of a result whose every field is set decodes to that
// Summary, and the head ends where the GC pause count begins.
func TestSummaryCoversHead(t *testing.T) {
	want, got := map[string]reflect.Type{}, map[string]reflect.Type{}
	scalarLeaves(reflect.TypeOf(sim.Result{}), "", want)
	scalarLeaves(reflect.TypeOf(sim.Summary{}), "", got)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Summary fields %v, Result scalars %v", got, want)
	}

	res := filled(t)
	sum := res.Summary()
	for path := range want {
		if a, b := fieldAt(reflect.ValueOf(sum), path), fieldAt(reflect.ValueOf(res), path); a.Interface() != b.Interface() {
			t.Errorf("Summary().%s = %v, Result.%s = %v", path, a, path, b)
		}
	}
	data, _ := res.MarshalBinary()
	var head sim.Summary
	if err := head.UnmarshalBinary(data); err != nil || head != sum {
		t.Fatalf("head decode: %+v, %v; want %+v", head, err, sum)
	}

	// With every repeated section empty and no Sampling, the encoding is
	// the head plus eight zero bytes: the counts of pauses, threads,
	// marks, epochs, epoch slices, samples and per-core samples, and the
	// Sampling presence byte. The head is the same bytes in res's own
	// encoding, followed there by its pause count.
	bare := res
	bare.GC.Pauses, bare.Threads, bare.Marks, bare.Epochs, bare.Samples, bare.Sampling = nil, nil, nil, nil, nil, nil
	enc, _ := bare.MarshalBinary()
	n := len(enc) - 8
	if !bytes.Equal(enc[n:], make([]byte, 8)) || !bytes.Equal(enc[:n], data[:n]) {
		t.Fatal("the head is not a prefix shared by both encodings")
	}
	if data[n] != byte(len(res.GC.Pauses)) {
		t.Fatalf("byte %d after the head is %d, want the pause count %d", n, data[n], len(res.GC.Pauses))
	}
	if err := head.UnmarshalBinary(enc[:n]); err != nil || head != sum {
		t.Fatalf("the head alone decodes to %+v, %v", head, err)
	}
}

// TestSummaryRejectsBadHead checks that an unknown version and every
// truncation of the head are errors that leave the receiver untouched.
func TestSummaryRejectsBadHead(t *testing.T) {
	res := filled(t)
	data, _ := res.MarshalBinary()
	bad := map[string][]byte{
		"empty":   {},
		"version": append([]byte{sim.CodecVersion + 1}, data[1:]...),
	}
	bare := res
	bare.GC.Pauses, bare.Threads, bare.Marks, bare.Epochs, bare.Samples, bare.Sampling = nil, nil, nil, nil, nil, nil
	enc, _ := bare.MarshalBinary()
	for n := 1; n < len(enc)-8; n++ {
		bad[fmt.Sprintf("prefix-%d", n)] = enc[:n]
	}
	for name, in := range bad {
		got := res.Summary()
		if err := got.UnmarshalBinary(in); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
		if got != res.Summary() {
			t.Errorf("%s: failed decode modified the receiver", name)
		}
	}
}

// FuzzResultDecode feeds arbitrary bytes to both decoders: neither may
// panic, the head decoder must accept whatever the full decoder accepts and
// agree with it, and any input the full decoder accepts must re-encode to
// bytes that decode to the same value and re-encode identically. Its seeds
// are the corpus under testdata/fuzz/FuzzResultDecode: a valid small
// encoding, a truncated one, a wrong version and a huge count.
func FuzzResultDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var head sim.Summary
		headErr := head.UnmarshalBinary(data)
		var r sim.Result
		if r.UnmarshalBinary(data) != nil {
			return
		}
		if headErr != nil {
			t.Fatalf("head rejected an input the full decoder accepts: %v", headErr)
		}
		if head != r.Summary() {
			t.Fatalf("head %+v, full decode's summary %+v", head, r.Summary())
		}
		enc, err := r.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var again sim.Result
		if err := again.UnmarshalBinary(enc); err != nil {
			t.Fatalf("re-encoding of an accepted input is rejected: %v", err)
		}
		if !sameResult(&r, &again) {
			t.Fatalf("re-decoded value differs:\nfirst  %+v\nsecond %+v", r, again)
		}
		if enc2, _ := again.MarshalBinary(); !bytes.Equal(enc, enc2) {
			t.Fatal("encoding is not stable across a round trip")
		}
	})
}

func BenchmarkResultDecode(b *testing.B) {
	data, err := fixtures(b)["truth"].MarshalBinary()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	var out sim.Result
	for i := 0; i < b.N; i++ {
		if err := out.UnmarshalBinary(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkResultEncode(b *testing.B) {
	res := fixtures(b)["truth"]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := res.MarshalBinary(); err != nil {
			b.Fatal(err)
		}
	}
}
