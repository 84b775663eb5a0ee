package wire

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"scalekv/internal/row"
)

var codecs = []Codec{FastCodec{}, SlowCodec{}}

func sampleMessages() []Message {
	return []Message{
		&CountRequest{QueryID: 42, Seq: 7, PK: "cube-0113", TraceSendNanos: 123456789},
		&CountResponse{
			QueryID: 42, Seq: 7, NodeID: 3, Elements: 10000,
			Counts:     map[uint8]uint64{0: 5000, 1: 3000, 2: 2000},
			QueueNanos: 1500, DBNanos: 820000,
		},
		&CountResponse{QueryID: 1, ErrMsg: "partition not found"},
		&PutRequest{PK: "p", CK: []byte{1, 2}, Value: []byte("hello")},
		&PutResponse{},
		&PutResponse{ErrMsg: "disk full"},
		&GetRequest{PK: "p", CK: []byte{9}},
		&GetResponse{Value: []byte("v"), Found: true},
		&GetResponse{Found: false},
		&ScanRequest{PK: "p", From: []byte{0}, To: []byte{200}},
		&ScanRequest{PK: "p"}, // nil bounds
		&ScanResponse{Cells: []row.Cell{
			{CK: []byte{1}, Value: []byte("a")},
			{CK: []byte{2}, Value: []byte("bb")},
		}},
		&ScanResponse{ErrMsg: "boom"},
		&BatchPutRequest{Entries: []row.Entry{
			{PK: "cube-L2-0-1-3", CK: []byte{0, 0, 1}, Value: []byte("alpha")},
			{PK: "cube-L2-7-7-7", CK: []byte{0, 0, 2}, Value: []byte("bravo")},
			{PK: "cube-L2-0-1-3", CK: []byte{0, 0, 3}, Value: []byte{}},
		}},
		&BatchPutRequest{}, // empty batch
		&BatchPutResponse{Applied: 3},
		&BatchPutResponse{ErrMsg: "disk full"},
		&MultiGetRequest{Keys: []GetKey{
			{PK: "p1", CK: []byte{1}},
			{PK: "p2", CK: []byte{2, 3}},
		}},
		&MultiGetResponse{Values: []MultiGetValue{
			{Value: []byte("v1"), Found: true},
			{Found: false},
		}},
		&MultiGetResponse{ErrMsg: "partition not found"},
		&PutRequest{PK: "p", CK: []byte{1}, Value: []byte("v"), Epoch: 7},
		&GetRequest{PK: "p", CK: []byte{9}, Epoch: 3},
		&ScanRequest{PK: "p", Epoch: 12},
		&BatchPutRequest{Entries: []row.Entry{{PK: "x", CK: []byte{1}, Value: []byte("y")}}, Epoch: 5},
		&MultiGetRequest{Keys: []GetKey{{PK: "p1", CK: []byte{1}}}, Epoch: 9},
		&RingStateRequest{},
		&RingStateResponse{Epoch: 4, Vnodes: 64, Nodes: []NodeAddr{
			{ID: 0, Addr: "node-0"}, {ID: 3, Addr: "127.0.0.1:7171"},
		}},
		&RingStateResponse{ErrMsg: "no topology"},
		&StreamRangeRequest{Lo: -1 << 62, Hi: 1<<62 - 1, AfterToken: -9000, AfterPK: "cube-0007", MaxCells: 4096},
		&StreamRangeResponse{Entries: []row.Entry{
			{PK: "cube-0008", CK: []byte{1}, Value: []byte("a")},
		}, NextToken: -42, NextPK: "cube-0008", More: true},
		&StreamRangeResponse{ErrMsg: "engine closed"},
		&DeleteRangeRequest{Lo: -100, Hi: 100},
		&DeleteRangeResponse{Removed: 1234},
		&DeleteRangeResponse{ErrMsg: "boom"},
		&NodeStatsRequest{},
		&NodeStatsResponse{Epoch: 2, Shards: []ShardStat{
			{MemtableBytes: 1 << 20, FrozenMemtables: 2, SSTables: 5},
			{MemtableBytes: 0, FrozenMemtables: 0, SSTables: 1},
		}, FlushedBytes: 9 << 20, FlushCount: 7, CompactionCount: 1,
			CompactionBytesIn: 3 << 20, CompactionBytesOut: 2 << 20,
			LevelTables: []uint32{4, 2, 1}, LevelBytes: []uint64{1 << 20, 9 << 20, 80 << 20},
			CacheHits: 12345, CacheMisses: 678, CacheEvictions: 90, CacheBytes: 48 << 20,
			BlockBytesLogical: 10 << 20, BlockBytesStored: 6 << 20},
		// Versioned cells and tombstones: the fields every replica's
		// last-write-wins merge depends on must survive both codecs.
		&DeleteRequest{PK: "p", CK: []byte{1, 2, 3}, Epoch: 11},
		&DeleteRequest{PK: "p", CK: []byte{9}},
		&DeleteResponse{},
		&DeleteResponse{ErrMsg: "boom"},
		&GetResponse{Value: []byte("v"), Found: true, VerSeq: 99, VerNode: 7},
		&ScanResponse{Cells: []row.Cell{
			{CK: []byte{1}, Value: []byte("a"), Ver: row.Version{Seq: 5, Node: 2}},
			{CK: []byte{2}, Ver: row.Version{Seq: 6, Node: 1}, Tombstone: true},
		}},
		&BatchPutRequest{Entries: []row.Entry{
			{PK: "p", CK: []byte{1}, Value: []byte("fwd"), Ver: row.Version{Seq: 1 << 40, Node: 65535}},
			{PK: "p", CK: []byte{2}, Ver: row.Version{Seq: 12, Node: 3}, Tombstone: true},
		}, Epoch: 4},
		&StreamRangeResponse{Entries: []row.Entry{
			{PK: "cube-0008", CK: []byte{1}, Value: []byte("a"), Ver: row.Version{Seq: 77, Node: 2}},
			{PK: "cube-0008", CK: []byte{2}, Ver: row.Version{Seq: 78, Node: 2}, Tombstone: true},
		}, NextToken: -42, NextPK: "cube-0008", More: true},
		// Anti-entropy: digest probes and the tombstone-bearing get
		// response the read-repair of deletes rides on.
		&DigestRequest{Lo: -1 << 63, Hi: 1<<63 - 1, Depth: 4},
		&DigestRequest{Lo: -9000, Hi: 42, Depth: 10},
		&DigestResponse{Leaves: []DigestLeaf{
			{Hash: 14695981039346656037, Cells: 0},
			{Hash: 1, Cells: 1 << 40},
		}},
		&DigestResponse{ErrMsg: "engine closed"},
		&GetResponse{Tombstone: true, VerSeq: 1 << 50, VerNode: 65535},
		// Membership protocol: join, migration control, epoch flip,
		// liveness probes and departure announcements.
		&JoinRequest{ID: 3, Addr: "127.0.0.1:7073"},
		&JoinResponse{Epoch: 5, Moves: 12, CellsStreamed: 40000, CellsRetired: 39000,
			Pages: 10, StreamNanos: 1 << 30, FlipNanos: 1 << 20, RetireErr: "node 1: timeout"},
		&JoinResponse{ErrMsg: "join of node 3 already in flight"},
		&BeginMigrationRequest{Moves: []Move{
			{Lo: -1 << 62, Hi: 1<<62 - 1, From: 0, To: 3},
			{Lo: 42, Hi: 4242, From: 2, To: 3},
		}, Nodes: []NodeAddr{{ID: 0, Addr: "node-0"}, {ID: 3, Addr: "127.0.0.1:7073"}}},
		&BeginMigrationRequest{},
		&BeginMigrationResponse{},
		&BeginMigrationResponse{ErrMsg: "busy"},
		&EndMigrationRequest{},
		&EndMigrationResponse{ErrMsg: "boom"},
		&SetRingStateRequest{Epoch: 6, Vnodes: 64, RF: 2, Nodes: []NodeAddr{
			{ID: 0, Addr: "node-0"}, {ID: 1, Addr: "node-1"},
		}},
		&SetRingStateResponse{},
		&SetRingStateResponse{ErrMsg: "stale epoch"},
		&PingRequest{FromID: 1, Epoch: 4},
		&PingResponse{ID: 2, Epoch: 4},
		&PingResponse{ErrMsg: "shutting down"},
		&LeaveRequest{ID: 2},
		&LeaveResponse{},
		&RingStateResponse{Epoch: 9, Vnodes: 32, RF: 3, Nodes: []NodeAddr{{ID: 7, Addr: "x:1"}}},
		&NodeStatsResponse{Epoch: 3, Peers: []PeerStat{
			{ID: 1, Up: true, SinceMillis: 120000},
			{ID: 2, Up: false, Suspicion: 5, SinceMillis: 900},
		}, DialCount: 12, RedialCount: 3},
		// The last fields no fixture above sets (TestFixturesCoverEveryField).
		&CountRequest{QueryID: 3, Seq: 1, PK: "cube-7", Epoch: 8},
		&CountResponse{QueryID: 9, Seq: 2, NodeID: 1, Elements: 3, Counts: map[uint8]uint64{4: 3},
			RecvNanos: 1700000000123456789, QueueNanos: 7, DBNanos: 9},
		&GetResponse{ErrMsg: "wrong epoch: node at 3, request at 4"},
		&NodeStatsResponse{ErrMsg: "engine closed"},
		&LeaveResponse{ErrMsg: "shutting down"},
		&ErrorResponse{ErrMsg: "bad frame"},
	}
}

func TestRoundTripAllMessagesAllCodecs(t *testing.T) {
	for _, c := range codecs {
		for i, m := range sampleMessages() {
			data, err := c.Marshal(m)
			if err != nil {
				t.Fatalf("%s: marshal msg %d: %v", c.Name(), i, err)
			}
			got, err := c.Unmarshal(data)
			if err != nil {
				t.Fatalf("%s: unmarshal msg %d: %v", c.Name(), i, err)
			}
			if !reflect.DeepEqual(normalize(m), normalize(got)) {
				t.Fatalf("%s: msg %d round trip\n in: %#v\nout: %#v", c.Name(), i, m, got)
			}
		}
	}
}

// normalize maps empty-but-non-nil containers to nil so DeepEqual
// compares semantic content. Fast and slow codecs may differ in whether
// they materialize empty slices.
func normalize(m Message) Message {
	switch v := m.(type) {
	case *CountResponse:
		out := *v
		if len(out.Counts) == 0 {
			out.Counts = nil
		}
		return &out
	case *ScanResponse:
		out := *v
		if len(out.Cells) == 0 {
			out.Cells = nil
		}
		for i := range out.Cells {
			if len(out.Cells[i].CK) == 0 {
				out.Cells[i].CK = nil
			}
			if len(out.Cells[i].Value) == 0 {
				out.Cells[i].Value = nil
			}
		}
		return &out
	case *PutRequest:
		out := *v
		if len(out.CK) == 0 {
			out.CK = nil
		}
		if len(out.Value) == 0 {
			out.Value = nil
		}
		return &out
	case *GetRequest:
		out := *v
		if len(out.CK) == 0 {
			out.CK = nil
		}
		return &out
	case *GetResponse:
		out := *v
		if len(out.Value) == 0 {
			out.Value = nil
		}
		return &out
	case *DigestResponse:
		out := *v
		if len(out.Leaves) == 0 {
			out.Leaves = nil
		}
		return &out
	case *ScanRequest:
		out := *v
		if len(out.From) == 0 {
			out.From = nil
		}
		if len(out.To) == 0 {
			out.To = nil
		}
		return &out
	case *BatchPutRequest:
		out := *v
		if len(out.Entries) == 0 {
			out.Entries = nil
		} else {
			out.Entries = append([]row.Entry(nil), out.Entries...)
		}
		for i := range out.Entries {
			if len(out.Entries[i].CK) == 0 {
				out.Entries[i].CK = nil
			}
			if len(out.Entries[i].Value) == 0 {
				out.Entries[i].Value = nil
			}
		}
		return &out
	case *MultiGetRequest:
		out := *v
		if len(out.Keys) == 0 {
			out.Keys = nil
		} else {
			out.Keys = append([]GetKey(nil), out.Keys...)
		}
		for i := range out.Keys {
			if len(out.Keys[i].CK) == 0 {
				out.Keys[i].CK = nil
			}
		}
		return &out
	case *MultiGetResponse:
		out := *v
		if len(out.Values) == 0 {
			out.Values = nil
		} else {
			out.Values = append([]MultiGetValue(nil), out.Values...)
		}
		for i := range out.Values {
			if len(out.Values[i].Value) == 0 {
				out.Values[i].Value = nil
			}
		}
		return &out
	case *RingStateResponse:
		out := *v
		if len(out.Nodes) == 0 {
			out.Nodes = nil
		}
		return &out
	case *StreamRangeResponse:
		out := *v
		if len(out.Entries) == 0 {
			out.Entries = nil
		} else {
			out.Entries = append([]row.Entry(nil), out.Entries...)
		}
		for i := range out.Entries {
			if len(out.Entries[i].CK) == 0 {
				out.Entries[i].CK = nil
			}
			if len(out.Entries[i].Value) == 0 {
				out.Entries[i].Value = nil
			}
		}
		return &out
	case *NodeStatsResponse:
		out := *v
		if len(out.Shards) == 0 {
			out.Shards = nil
		}
		if len(out.Peers) == 0 {
			out.Peers = nil
		}
		if len(out.LevelTables) == 0 {
			out.LevelTables = nil
		}
		if len(out.LevelBytes) == 0 {
			out.LevelBytes = nil
		}
		return &out
	case *BeginMigrationRequest:
		out := *v
		if len(out.Moves) == 0 {
			out.Moves = nil
		}
		if len(out.Nodes) == 0 {
			out.Nodes = nil
		}
		return &out
	case *SetRingStateRequest:
		out := *v
		if len(out.Nodes) == 0 {
			out.Nodes = nil
		}
		return &out
	}
	return m
}

func TestCrossCodecIncompatibilityDetected(t *testing.T) {
	// A fast frame fed to the slow codec (and vice versa) must error,
	// not silently mis-decode.
	m := &CountRequest{QueryID: 1, PK: "x"}
	fast, _ := FastCodec{}.Marshal(m)
	if _, err := (SlowCodec{}).Unmarshal(fast); err == nil {
		t.Error("slow codec decoded a fast frame")
	}
	slow, _ := SlowCodec{}.Marshal(m)
	if _, err := (FastCodec{}).Unmarshal(slow); err == nil {
		t.Error("fast codec decoded a slow frame")
	}
}

func TestUnmarshalGarbage(t *testing.T) {
	for _, c := range codecs {
		for _, data := range [][]byte{nil, {0xFF}, {1, 2, 3}, make([]byte, 64)} {
			if _, err := c.Unmarshal(data); err == nil {
				t.Errorf("%s: decoded garbage %v", c.Name(), data)
			}
		}
	}
}

func TestTruncatedFrames(t *testing.T) {
	for _, c := range codecs {
		m := &CountResponse{
			QueryID: 9, Counts: map[uint8]uint64{1: 2, 3: 4}, ErrMsg: "x",
		}
		full, err := c.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 1; cut < len(full); cut++ {
			if _, err := c.Unmarshal(full[:cut]); err == nil {
				// Some prefixes can be valid encodings of a shorter
				// message only if trailing bytes are checked; fast codec
				// tolerates them by design, slow codec rejects them.
				if c.Name() == "slow" {
					t.Errorf("slow codec accepted truncation at %d", cut)
				}
			}
		}
	}
}

func TestSlowStreamIsSelfDescribing(t *testing.T) {
	m := &CountRequest{QueryID: 5, PK: "partition-abc"}
	data, err := SlowCodec{}.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	// The stream must contain the type name and field names — that
	// metadata is exactly the Java-serialization overhead the paper
	// measured.
	for _, needle := range []string{"wire.CountRequest", "QueryID", "PK", "TraceSendNanos"} {
		if !contains(data, needle) {
			t.Errorf("slow stream missing descriptor %q", needle)
		}
	}
}

func contains(haystack []byte, needle string) bool {
	for i := 0; i+len(needle) <= len(haystack); i++ {
		if string(haystack[i:i+len(needle)]) == needle {
			return true
		}
	}
	return false
}

func TestSlowFramesAreLarger(t *testing.T) {
	// The paper: 7.5 MB slow vs 900 KB fast for 10k messages (~8x).
	// Require at least 3x on every sample message.
	for _, m := range sampleMessages() {
		slow, err := SlowCodec{}.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		fast, err := FastCodec{}.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if len(slow) < 3*len(fast) {
			t.Errorf("%T: slow=%dB fast=%dB, ratio %.1fx < 3x",
				m, len(slow), len(fast), float64(len(slow))/float64(len(fast)))
		}
	}
}

func TestBatchMessageTypeIDsAreStable(t *testing.T) {
	// Wire compatibility: these values are on the wire between versions;
	// a renumbering is a protocol break and must fail loudly here.
	want := map[uint16]Message{
		9:  &BatchPutRequest{},
		10: &BatchPutResponse{},
		11: &MultiGetRequest{},
		12: &MultiGetResponse{},
		13: &RingStateRequest{},
		14: &RingStateResponse{},
		15: &StreamRangeRequest{},
		16: &StreamRangeResponse{},
		17: &DeleteRangeRequest{},
		18: &DeleteRangeResponse{},
		19: &NodeStatsRequest{},
		20: &NodeStatsResponse{},
		21: &DeleteRequest{},
		22: &DeleteResponse{},
		23: &DigestRequest{},
		24: &DigestResponse{},
		25: &JoinRequest{},
		26: &JoinResponse{},
		27: &BeginMigrationRequest{},
		28: &BeginMigrationResponse{},
		29: &EndMigrationRequest{},
		30: &EndMigrationResponse{},
		31: &SetRingStateRequest{},
		32: &SetRingStateResponse{},
		33: &PingRequest{},
		34: &PingResponse{},
		35: &LeaveRequest{},
		36: &LeaveResponse{},
	}
	for id, m := range want {
		if got := m.TypeID(); got != id {
			t.Errorf("%T: TypeID %d want %d", m, got, id)
		}
	}
}

func TestQuickBatchPutRoundTrip(t *testing.T) {
	for _, c := range codecs {
		c := c
		f := func(pks []string, payload [][]byte) bool {
			in := &BatchPutRequest{}
			for i, pk := range pks {
				var val []byte
				if i < len(payload) {
					val = payload[i]
				}
				in.Entries = append(in.Entries, row.Entry{
					PK: pk, CK: []byte{byte(i)}, Value: val,
					Ver:       row.Version{Seq: uint64(i)*7 + 1, Node: uint16(i * 13)},
					Tombstone: i%3 == 0,
				})
			}
			data, err := c.Marshal(in)
			if err != nil {
				return false
			}
			out, err := c.Unmarshal(data)
			if err != nil {
				return false
			}
			got, ok := out.(*BatchPutRequest)
			if !ok || len(got.Entries) != len(in.Entries) {
				return false
			}
			for i, e := range in.Entries {
				g := got.Entries[i]
				if g.PK != e.PK || !bytes.Equal(g.CK, e.CK) || !bytes.Equal(g.Value, e.Value) {
					return false
				}
				if g.Ver != e.Ver || g.Tombstone != e.Tombstone {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%s: %v", c.Name(), err)
		}
	}
}

func TestQuickCountRequestRoundTrip(t *testing.T) {
	for _, c := range codecs {
		c := c
		f := func(id uint64, seq uint32, pk string) bool {
			in := &CountRequest{QueryID: id, Seq: seq, PK: pk}
			data, err := c.Marshal(in)
			if err != nil {
				return false
			}
			out, err := c.Unmarshal(data)
			if err != nil {
				return false
			}
			got, ok := out.(*CountRequest)
			return ok && got.QueryID == id && got.Seq == seq && got.PK == pk
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("%s: %v", c.Name(), err)
		}
	}
}

func TestQuickCountResponseCounts(t *testing.T) {
	for _, c := range codecs {
		c := c
		f := func(raw map[uint8]uint64) bool {
			in := &CountResponse{QueryID: 1, Counts: raw}
			data, err := c.Marshal(in)
			if err != nil {
				return false
			}
			out, err := c.Unmarshal(data)
			if err != nil {
				return false
			}
			got := out.(*CountResponse)
			if len(got.Counts) != len(raw) {
				return false
			}
			for k, v := range raw {
				if got.Counts[k] != v {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%s: %v", c.Name(), err)
		}
	}
}

// The headline Section V-B numbers: marshal+unmarshal cost per message
// for each codec. EXPERIMENTS.md quotes these against the paper's
// 150 µs -> 19 µs.
func BenchmarkSlowCodec(b *testing.B) { benchCodec(b, SlowCodec{}) }
func BenchmarkFastCodec(b *testing.B) { benchCodec(b, FastCodec{}) }

func benchCodec(b *testing.B, c Codec) {
	m := &CountRequest{QueryID: 42, Seq: 1001, PK: "cube-level4-0113", TraceSendNanos: 1 << 40}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := c.Marshal(m)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Unmarshal(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSlowCodecResponse(b *testing.B) {
	benchCodecResponse(b, SlowCodec{})
}

func BenchmarkFastCodecResponse(b *testing.B) {
	benchCodecResponse(b, FastCodec{})
}

func benchCodecResponse(b *testing.B, c Codec) {
	m := &CountResponse{
		QueryID: 42, Seq: 1001, NodeID: 5, Elements: 100,
		Counts: map[uint8]uint64{0: 10, 1: 20, 2: 30, 3: 40},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := c.Marshal(m)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Unmarshal(data); err != nil {
			b.Fatal(err)
		}
	}
}

func ExampleFastCodec() {
	c := FastCodec{}
	data, _ := c.Marshal(&CountRequest{QueryID: 7, PK: "cube-42"})
	m, _ := c.Unmarshal(data)
	fmt.Println(m.(*CountRequest).PK)
	// Output: cube-42
}
