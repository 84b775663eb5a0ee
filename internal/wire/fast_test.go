package wire

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"scalekv/internal/enc"
	"scalekv/internal/raceflag"
	"scalekv/internal/row"
)

// hugeCountFrame is a frame of one count-prefixed type whose fields in
// front of the count are zero and whose count is far larger than any
// frame could back.
type hugeCountFrame struct {
	name  string
	frame []byte
}

// hugeCountFrames returns one such frame per count-prefixed field the
// fast codec decodes. zeros is the number of one-byte zero fields in
// front of the count.
func hugeCountFrames() []hugeCountFrame {
	sites := []struct {
		name  string
		id    uint16
		zeros int
		count uint64
	}{
		{"CountResponse.Counts", TypeCountResponse, 4, 1 << 62},
		{"ScanResponse.Cells", TypeScanResponse, 0, 1 << 62},
		{"ScanResponse.Cells/2^26", TypeScanResponse, 0, 1 << 26},
		{"BatchPutRequest.Entries", TypeBatchPutRequest, 0, 1 << 62},
		{"MultiGetRequest.Keys", TypeMultiGetRequest, 0, 1 << 62},
		{"MultiGetResponse.Values", TypeMultiGetResponse, 0, 1 << 62},
		{"RingStateResponse.Nodes", TypeRingStateResponse, 3, 1 << 62},
		{"StreamRangeResponse.Entries", TypeStreamRangeResponse, 0, 1 << 62},
		{"DigestResponse.Leaves", TypeDigestResponse, 0, 1 << 62},
		{"NodeStatsResponse.Shards", TypeNodeStatsResponse, 1, 1 << 62},
		{"NodeStatsResponse.LevelTables", TypeNodeStatsResponse, 7, 1 << 62},
		{"NodeStatsResponse.LevelBytes", TypeNodeStatsResponse, 8, 1 << 62},
		{"NodeStatsResponse.Peers", TypeNodeStatsResponse, 15, 1 << 62},
		{"BeginMigrationRequest.Moves", TypeBeginMigrationRequest, 0, 1 << 62},
		{"BeginMigrationRequest.Nodes", TypeBeginMigrationRequest, 1, 1 << 62},
		{"SetRingStateRequest.Nodes", TypeSetRingStateRequest, 3, 1 << 62},
	}
	out := make([]hugeCountFrame, len(sites))
	for i, s := range sites {
		frame := enc.AppendUvarint(nil, uint64(s.id))
		frame = append(frame, make([]byte, s.zeros)...)
		out[i] = hugeCountFrame{s.name, enc.AppendUvarint(frame, s.count)}
	}
	return out
}

// wideTypeIDFrame is a GetRequest body behind the type ID
// 65536 + TypeGetRequest (65541), which a decoder truncating the ID to
// 16 bits reads as a GetRequest.
func wideTypeIDFrame(t testing.TB) []byte {
	t.Helper()
	frame, err := FastCodec{}.Marshal(&GetRequest{PK: "part-000123", CK: []byte("ck-0042"), Epoch: 3})
	if err != nil {
		t.Fatal(err)
	}
	_, n := enc.Uvarint(frame)
	return append(enc.AppendUvarint(nil, 1<<16+uint64(TypeGetRequest)), frame[n:]...)
}

// TestFastUnmarshalRejectsWideTypeID: a type ID above 65535 names no
// message. It used to be truncated to 16 bits, so 65541 followed by a
// GetRequest body decoded as a GetRequest without an error.
func TestFastUnmarshalRejectsWideTypeID(t *testing.T) {
	frame := wideTypeIDFrame(t)
	if m, err := (FastCodec{}).Unmarshal(frame); err == nil {
		t.Fatalf("type ID 65541 decoded as %T", m)
	}
}

// TestFastUnmarshalBoundsCounts: a count read off the wire is bounded by
// the bytes left in the frame before anything is sized from it. Each
// frame used to panic in makeslice (a node's reader goroutine has no
// recover) or ask for gigabytes.
func TestFastUnmarshalBoundsCounts(t *testing.T) {
	for _, hc := range hugeCountFrames() {
		t.Run(hc.name, func(t *testing.T) {
			if _, err := (FastCodec{}).Unmarshal(hc.frame); err == nil {
				t.Fatalf("decoded %x", hc.frame)
			}
			const runs = 100
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range runs {
				_, _ = FastCodec{}.Unmarshal(hc.frame)
			}
			runtime.ReadMemStats(&after)
			if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 1<<10 {
				t.Fatalf("a %d-byte frame allocated %d bytes", len(hc.frame), per)
			}
		})
	}
}

// byteFields collects every []byte field reachable from v.
func byteFields(v reflect.Value, out *[][]byte) {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			byteFields(v.Elem(), out)
		}
	case reflect.Struct:
		for i := range v.NumField() {
			byteFields(v.Field(i), out)
		}
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Uint8 {
			*out = append(*out, v.Bytes())
			return
		}
		for i := range v.Len() {
			byteFields(v.Index(i), out)
		}
	}
}

// checkViews asserts the fast codec's decode contract on m, decoded from
// frame: every non-empty []byte field is a view into frame whose
// capacity ends at its own last byte, and every empty one is nil.
// FuzzFastCodec applies it to every fixture and every fuzzed frame.
func checkViews(t *testing.T, frame []byte, m Message) {
	t.Helper()
	var fields [][]byte
	byteFields(reflect.ValueOf(m), &fields)
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(frame)))
	hi := lo + uintptr(len(frame))
	for i, b := range fields {
		if len(b) == 0 {
			if b != nil {
				t.Fatalf("%T field %d: empty but not nil", m, i)
			}
			continue
		}
		if p := uintptr(unsafe.Pointer(unsafe.SliceData(b))); p < lo || p+uintptr(len(b)) > hi {
			t.Fatalf("%T field %d: %d bytes outside the %d-byte frame", m, i, len(b), len(frame))
		}
		if cap(b) != len(b) {
			t.Fatalf("%T field %d: cap %d past its %d bytes", m, i, cap(b), len(b))
		}
	}
}

// TestDecodedCellAppendLeavesNeighbourIntact: a caller's append to one
// decoded field reallocates instead of writing into the next field.
func TestDecodedCellAppendLeavesNeighbourIntact(t *testing.T) {
	data, _ := FastCodec{}.Marshal(&ScanResponse{Cells: []row.Cell{
		{CK: []byte("ck-1"), Value: []byte("value-1")},
		{CK: []byte("ck-2"), Value: []byte("value-2")},
	}})
	m, err := FastCodec{}.Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	cells := m.(*ScanResponse).Cells
	grown := append(cells[0].CK, "XXXXXXXXXXXX"...)
	if string(grown) != "ck-1XXXXXXXXXXXX" {
		t.Fatalf("append produced %q", grown)
	}
	if string(cells[0].Value) != "value-1" || string(cells[1].CK) != "ck-2" {
		t.Fatalf("append to a CK overwrote the frame: %q %q", cells[0].Value, cells[1].CK)
	}
}

func skipAllocPinUnderRace(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
}

// TestFastMarshalAllocs: an encode is the frame and nothing else.
func TestFastMarshalAllocs(t *testing.T) {
	skipAllocPinUnderRace(t)
	for _, m := range sampleMessages() {
		if got := testing.AllocsPerRun(100, func() { _, _ = FastCodec{}.Marshal(m) }); got != 1 {
			t.Errorf("%T: Marshal allocates %v times, want 1", m, got)
		}
	}
}

// TestFastUnmarshalAllocs: a decode allocates the message and its
// element slices; the byte fields cost nothing.
func TestFastUnmarshalAllocs(t *testing.T) {
	skipAllocPinUnderRace(t)
	for _, c := range []struct {
		m   Message
		max float64
	}{
		{scanResponse32(), 2}, // message + cell slice
		{&GetResponse{Value: bytes.Repeat([]byte("v"), 100), Found: true, VerSeq: 9}, 1},
	} {
		data, _ := FastCodec{}.Marshal(c.m)
		if got := testing.AllocsPerRun(100, func() { _, _ = FastCodec{}.Unmarshal(data) }); got > c.max {
			t.Errorf("%T: Unmarshal allocates %v times, want <= %v", c.m, got, c.max)
		}
	}
}

// scanResponse32 is a scan-tcp reply: 32 cells of 128-byte values.
func scanResponse32() *ScanResponse {
	scan := &ScanResponse{}
	for i := range 32 {
		scan.Cells = append(scan.Cells, row.Cell{
			CK:    []byte(fmt.Sprintf("ck-%04d", i)),
			Value: bytes.Repeat([]byte{byte(i)}, 128),
			Ver:   row.Version{Seq: uint64(i) + 1, Node: 2},
		})
	}
	return scan
}

// benchMessages are the frames the BENCHMARK.json workloads put on the
// wire: scan-tcp's reply, the point get and put pairs, and countall-tcp's
// count pair.
var benchMessages = []struct {
	name string
	m    Message
}{
	{"ScanResponse", scanResponse32()},
	{"GetRequest", &GetRequest{PK: "part-000123", CK: []byte("ck-0042"), Epoch: 3}},
	{"GetResponse", &GetResponse{Value: bytes.Repeat([]byte("v"), 128), Found: true, VerSeq: 1 << 20, VerNode: 2}},
	{"PutRequest", &PutRequest{PK: "part-000123", CK: []byte("ck-0042"), Value: bytes.Repeat([]byte("v"), 128), Epoch: 3}},
	{"PutResponse", &PutResponse{}},
	{"CountRequest", &CountRequest{QueryID: 42, Seq: 17, PK: "part-000123", TraceSendNanos: 1 << 60}},
	{"CountResponse", &CountResponse{QueryID: 42, Seq: 17, NodeID: 3, Elements: 64,
		Counts: map[uint8]uint64{0: 16, 1: 16, 2: 16, 3: 16}, RecvNanos: 1 << 60, QueueNanos: 900, DBNanos: 4000}},
}

// BenchmarkFastMarshal and BenchmarkFastUnmarshal time each direction of
// the codec on its own, so a codec regression shows in `go test -bench`
// without a cluster or bench/run.sh.
func BenchmarkFastMarshal(b *testing.B) {
	for _, bm := range benchMessages {
		b.Run(bm.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := (FastCodec{}).Marshal(bm.m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFastUnmarshal(b *testing.B) {
	for _, bm := range benchMessages {
		data, err := FastCodec{}.Marshal(bm.m)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(bm.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := (FastCodec{}).Unmarshal(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
