package simcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"
	"sync"
)

// Key derives the content address for a cached result from its inputs: the
// SHA-256 of SchemaVersion followed by the canonical binary encoding of
// each part. Callers include every input the simulation depends on — the
// full machine config, the benchmark spec(s) carrying the seed, and any
// governor parameters — plus Fingerprint of the result type.
//
// The encoding walks values by reflection. Every part, and the dynamic
// value of every interface inside one, is prefixed by its type's
// Fingerprint, so two types whose values encode alike — int and uint,
// structs with the same field kinds under other names or in another
// order — never share a key, and adding, renaming, retyping or reordering
// a field changes every key that contains it. Below the prefix, integers
// are fixed-width little-endian (int, uint and uintptr as 64 bits on every
// platform), floats their raw IEEE bits (so -0 and +0 differ), strings,
// slices and arrays length-prefixed, and nil slices, pointers and
// interfaces marked by a presence byte. Structs contribute their exported
// fields in declaration order. NaN and ±Inf (which have no canonical
// bits), maps, channels, functions and complex numbers are rejected with
// an error.
func Key(parts ...any) (string, error) {
	bp := keyBufs.Get().(*[]byte)
	b := append((*bp)[:0], SchemaVersion...)
	var err error
	for _, p := range parts {
		if b, err = appendDynamic(b, reflect.ValueOf(p), 0); err != nil {
			break
		}
	}
	sum := sha256.Sum256(b)
	*bp = b
	keyBufs.Put(bp)
	if err != nil {
		return "", fmt.Errorf("simcache: keying: %w", err)
	}
	var key [2 * sha256.Size]byte
	hex.Encode(key[:], sum[:])
	return string(key[:]), nil
}

// keyBufs recycles Key's encoding buffers.
var keyBufs = sync.Pool{New: func() any { b := make([]byte, 0, 1024); return &b }}

// maxKeyDepth bounds how many pointers, slices and interfaces deep Key
// follows a value, so a cyclic one is an error rather than a stack
// overflow.
const maxKeyDepth = 100

// appendDynamic appends the encoding of an interface's dynamic value e
// (the zero Value for nil): a presence byte, then its type's fingerprint
// and its value.
func appendDynamic(b []byte, e reflect.Value, depth int) ([]byte, error) {
	if !e.IsValid() {
		return append(b, 0), nil
	}
	fp := infoFor(e.Type()).fp
	return appendValue(append(append(b, 1), fp[:]...), e, depth)
}

// appendValue appends the canonical encoding of v (see Key) to b. depth
// counts the pointers, slices and interfaces above v.
func appendValue(b []byte, v reflect.Value, depth int) (_ []byte, err error) {
	switch k := v.Kind(); k {
	case reflect.Bool:
		if v.Bool() {
			return append(b, 1), nil
		}
		return append(b, 0), nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return appendFixed(b, uint64(v.Int()), k), nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return appendFixed(b, v.Uint(), k), nil
	case reflect.Float32, reflect.Float64:
		f := v.Float()
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return b, fmt.Errorf("unsupported value: %v", f)
		}
		if k == reflect.Float32 {
			return binary.LittleEndian.AppendUint32(b, math.Float32bits(float32(f))), nil
		}
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(f)), nil
	case reflect.String:
		s := v.String()
		return append(binary.AppendUvarint(b, uint64(len(s))), s...), nil
	case reflect.Struct:
		for _, i := range infoFor(v.Type()).fields {
			if b, err = appendValue(b, v.Field(i), depth); err != nil {
				break
			}
		}
		return b, err
	case reflect.Array:
		return appendElems(b, v, depth)
	}
	// Pointers, slices and interfaces: the kinds a cyclic value loops
	// through, each behind a presence byte.
	if depth++; depth > maxKeyDepth {
		return b, fmt.Errorf("value nested more than %d pointers, slices or interfaces deep (cyclic?)", maxKeyDepth)
	}
	switch v.Kind() {
	case reflect.Slice:
		if v.IsNil() {
			return append(b, 0), nil
		}
		return appendElems(append(b, 1), v, depth)
	case reflect.Pointer:
		if v.IsNil() {
			return append(b, 0), nil
		}
		return appendValue(append(b, 1), v.Elem(), depth)
	case reflect.Interface:
		return appendDynamic(b, v.Elem(), depth)
	}
	return b, fmt.Errorf("unsupported type: %s", v.Type())
}

// appendFixed appends x little-endian in the width of kind k.
func appendFixed(b []byte, x uint64, k reflect.Kind) []byte {
	switch k {
	case reflect.Int8, reflect.Uint8:
		return append(b, byte(x))
	case reflect.Int16, reflect.Uint16:
		return binary.LittleEndian.AppendUint16(b, uint16(x))
	case reflect.Int32, reflect.Uint32:
		return binary.LittleEndian.AppendUint32(b, uint32(x))
	}
	return binary.LittleEndian.AppendUint64(b, x)
}

// appendElems appends the length and elements of slice or array v.
func appendElems(b []byte, v reflect.Value, depth int) (_ []byte, err error) {
	n := v.Len()
	b = binary.AppendUvarint(b, uint64(n))
	for i := 0; i < n && err == nil; i++ {
		b, err = appendValue(b, v.Index(i), depth)
	}
	return b, err
}

// typeInfo is what Key caches per type: its fingerprint and, for a struct,
// the indices of its exported fields.
type typeInfo struct {
	fp     [8]byte
	fields []int
}

// typeInfos caches infoFor per type.
var typeInfos sync.Map // reflect.Type -> *typeInfo

// infoFor returns t's typeInfo, computing it on first use.
func infoFor(t reflect.Type) *typeInfo {
	if ti, ok := typeInfos.Load(t); ok {
		return ti.(*typeInfo)
	}
	var b bytes.Buffer
	walkType(&b, t, map[reflect.Type]bool{})
	sum := sha256.Sum256(b.Bytes())
	ti := &typeInfo{fp: [8]byte(sum[:8])}
	if t != nil && t.Kind() == reflect.Struct {
		for i := 0; i < t.NumField(); i++ {
			if t.Field(i).IsExported() {
				ti.fields = append(ti.fields, i)
			}
		}
	}
	typeInfos.Store(t, ti)
	return ti
}

// Fingerprint returns a structural digest of v's type: type kinds, field
// names and declared order, recursively. Include it in Key so that adding,
// removing or retyping a field of the cached result changes every key —
// version skew between binaries then reads as a miss instead of a decode
// against the wrong layout.
func Fingerprint(v any) string {
	fp := infoFor(reflect.TypeOf(v)).fp
	return hex.EncodeToString(fp[:])
}

func walkType(b *bytes.Buffer, t reflect.Type, seen map[reflect.Type]bool) {
	if t == nil {
		b.WriteString("nil")
		return
	}
	if seen[t] {
		fmt.Fprintf(b, "cycle(%s)", t.Name())
		return
	}
	switch t.Kind() {
	case reflect.Pointer, reflect.Slice, reflect.Array:
		fmt.Fprintf(b, "%s{", t.Kind())
		walkType(b, t.Elem(), seen)
		b.WriteByte('}')
	case reflect.Struct:
		seen[t] = true
		fmt.Fprintf(b, "struct %s{", t.Name())
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			b.WriteString(f.Name)
			b.WriteByte(':')
			walkType(b, f.Type, seen)
			b.WriteByte(';')
		}
		b.WriteByte('}')
		delete(seen, t)
	case reflect.Map:
		b.WriteString("map[")
		walkType(b, t.Key(), seen)
		b.WriteByte(']')
		walkType(b, t.Elem(), seen)
	default:
		// Scalar: name + kind pins both the named type and its width.
		fmt.Fprintf(b, "%s/%s", t.Name(), t.Kind())
	}
}
