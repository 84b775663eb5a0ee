package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"

	"scalekv/internal/enc"
)

// SlowCodec is the analogue of Java's default serialization that the
// paper's prototype started with. The stream is self-describing: it
// carries the full type name, then for every field its name, its type
// string and a fixed-width value; nested structs, slices and maps recurse
// with their own descriptors. Encoding and decoding walk the message
// through the reflect package, including a by-name field lookup on every
// field — the same flexibility-over-performance trade the paper measured
// at 150 µs/message before switching to registered-class serialization.
type SlowCodec struct{}

// Name implements Codec.
func (SlowCodec) Name() string { return "slow" }

// slowRegistry maps type names back to concrete types, playing the role
// of the JVM classpath during deserialization. It is derived from
// registry, so both codecs know the same messages.
var slowRegistry = map[string]reflect.Type{}

func init() {
	for _, newMsg := range registry {
		if newMsg != nil {
			t := reflect.TypeOf(newMsg()).Elem()
			slowRegistry[t.String()] = t
		}
	}
}

// Kind tags in the stream.
const (
	tagBool   = byte(1)
	tagInt    = byte(2)
	tagUint   = byte(3)
	tagFloat  = byte(4)
	tagString = byte(5)
	tagBytes  = byte(6)
	tagSlice  = byte(7)
	tagMap    = byte(8)
	tagStruct = byte(9)
)

// Marshal implements Codec.
func (SlowCodec) Marshal(m Message) ([]byte, error) {
	v := reflect.ValueOf(m)
	if v.Kind() != reflect.Ptr || v.Elem().Kind() != reflect.Struct {
		return nil, fmt.Errorf("wire: slow codec needs a struct pointer, got %T", m)
	}
	sv := v.Elem()
	out := enc.AppendBytes(nil, []byte(sv.Type().String()))
	return appendValue(out, sv)
}

func appendValue(out []byte, v reflect.Value) ([]byte, error) {
	switch v.Kind() {
	case reflect.Bool:
		out = append(out, tagBool)
		if v.Bool() {
			return append(out, 1), nil
		}
		return append(out, 0), nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		out = append(out, tagInt)
		return binary.BigEndian.AppendUint64(out, uint64(v.Int())), nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		out = append(out, tagUint)
		return binary.BigEndian.AppendUint64(out, v.Uint()), nil
	case reflect.Float32, reflect.Float64:
		out = append(out, tagFloat)
		return binary.BigEndian.AppendUint64(out, math.Float64bits(v.Float())), nil
	case reflect.String:
		out = append(out, tagString)
		return enc.AppendBytes(out, []byte(v.String())), nil
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Uint8 {
			out = append(out, tagBytes)
			return enc.AppendBytes(out, v.Bytes()), nil
		}
		out = append(out, tagSlice)
		out = enc.AppendBytes(out, []byte(v.Type().Elem().String()))
		out = enc.AppendUvarint(out, uint64(v.Len()))
		var err error
		for i := 0; i < v.Len(); i++ {
			if out, err = appendValue(out, v.Index(i)); err != nil {
				return nil, err
			}
		}
		return out, nil
	case reflect.Map:
		out = append(out, tagMap)
		out = enc.AppendBytes(out, []byte(v.Type().Key().String()))
		out = enc.AppendBytes(out, []byte(v.Type().Elem().String()))
		out = enc.AppendUvarint(out, uint64(v.Len()))
		var err error
		iter := v.MapRange()
		for iter.Next() {
			if out, err = appendValue(out, iter.Key()); err != nil {
				return nil, err
			}
			if out, err = appendValue(out, iter.Value()); err != nil {
				return nil, err
			}
		}
		return out, nil
	case reflect.Struct:
		out = append(out, tagStruct)
		t := v.Type()
		out = enc.AppendUvarint(out, uint64(t.NumField()))
		var err error
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			out = enc.AppendBytes(out, []byte(f.Name))
			out = enc.AppendBytes(out, []byte(f.Type.String()))
			if out, err = appendValue(out, v.Field(i)); err != nil {
				return nil, err
			}
		}
		return out, nil
	default:
		return nil, fmt.Errorf("wire: slow codec cannot encode kind %v", v.Kind())
	}
}

// Unmarshal implements Codec.
func (SlowCodec) Unmarshal(data []byte) (Message, error) {
	name, n := enc.Bytes(data)
	if n == 0 {
		return nil, ErrTruncated
	}
	t, ok := slowRegistry[string(name)]
	if !ok {
		return nil, fmt.Errorf("wire: unknown type %q in slow stream", name)
	}
	pv := reflect.New(t)
	rest, err := decodeValue(data[n:], pv.Elem())
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes in slow stream", len(rest))
	}
	m, ok := pv.Interface().(Message)
	if !ok {
		return nil, fmt.Errorf("wire: type %q is not a Message", name)
	}
	return m, nil
}

func decodeValue(data []byte, v reflect.Value) ([]byte, error) {
	if len(data) == 0 {
		return nil, ErrTruncated
	}
	tag := data[0]
	data = data[1:]
	switch tag {
	case tagBool:
		if len(data) < 1 {
			return nil, ErrTruncated
		}
		if v.Kind() != reflect.Bool {
			return nil, fmt.Errorf("wire: bool into %v", v.Kind())
		}
		v.SetBool(data[0] == 1)
		return data[1:], nil
	case tagInt:
		if len(data) < 8 {
			return nil, ErrTruncated
		}
		v.SetInt(int64(binary.BigEndian.Uint64(data)))
		return data[8:], nil
	case tagUint:
		if len(data) < 8 {
			return nil, ErrTruncated
		}
		v.SetUint(binary.BigEndian.Uint64(data))
		return data[8:], nil
	case tagFloat:
		if len(data) < 8 {
			return nil, ErrTruncated
		}
		v.SetFloat(math.Float64frombits(binary.BigEndian.Uint64(data)))
		return data[8:], nil
	case tagString:
		b, n := enc.Bytes(data)
		if n == 0 {
			return nil, ErrTruncated
		}
		v.SetString(string(b))
		return data[n:], nil
	case tagBytes:
		b, n := enc.Bytes(data)
		if n == 0 {
			return nil, ErrTruncated
		}
		v.SetBytes(append([]byte(nil), b...))
		return data[n:], nil
	case tagSlice:
		if _, n := enc.Bytes(data); n == 0 {
			return nil, ErrTruncated
		} else {
			data = data[n:] // element type string, informational
		}
		ln, n := enc.Uvarint(data)
		if n <= 0 {
			return nil, ErrTruncated
		}
		data = data[n:]
		sl := reflect.MakeSlice(v.Type(), int(ln), int(ln))
		var err error
		for i := 0; i < int(ln); i++ {
			if data, err = decodeValue(data, sl.Index(i)); err != nil {
				return nil, err
			}
		}
		v.Set(sl)
		return data, nil
	case tagMap:
		for i := 0; i < 2; i++ { // key and value type strings
			_, n := enc.Bytes(data)
			if n == 0 {
				return nil, ErrTruncated
			}
			data = data[n:]
		}
		ln, n := enc.Uvarint(data)
		if n <= 0 {
			return nil, ErrTruncated
		}
		data = data[n:]
		mp := reflect.MakeMapWithSize(v.Type(), int(ln))
		var err error
		for i := 0; i < int(ln); i++ {
			k := reflect.New(v.Type().Key()).Elem()
			if data, err = decodeValue(data, k); err != nil {
				return nil, err
			}
			val := reflect.New(v.Type().Elem()).Elem()
			if data, err = decodeValue(data, val); err != nil {
				return nil, err
			}
			mp.SetMapIndex(k, val)
		}
		v.Set(mp)
		return data, nil
	case tagStruct:
		nf, n := enc.Uvarint(data)
		if n <= 0 {
			return nil, ErrTruncated
		}
		data = data[n:]
		var err error
		for i := 0; i < int(nf); i++ {
			nameB, n1 := enc.Bytes(data)
			if n1 == 0 {
				return nil, ErrTruncated
			}
			data = data[n1:]
			_, n2 := enc.Bytes(data) // field type string, informational
			if n2 == 0 {
				return nil, ErrTruncated
			}
			data = data[n2:]
			// The deliberate Java-like cost: by-name lookup per field.
			f := v.FieldByName(string(nameB))
			if !f.IsValid() {
				return nil, fmt.Errorf("wire: unknown field %q in slow stream", nameB)
			}
			if data, err = decodeValue(data, f); err != nil {
				return nil, err
			}
		}
		return data, nil
	default:
		return nil, fmt.Errorf("wire: bad tag %d in slow stream", tag)
	}
}
