package wire

import (
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"scalekv/internal/enc"
)

// TestFastFramesAreByteStable pins the fast codec's bytes: every fixture
// encodes to the frame recorded for it in testdata/frames.golden, one
// "type hex" line per fixture in sampleMessages order. A refactor of the
// codec that moves a single byte fails here, not in a mixed-version
// cluster.
func TestFastFramesAreByteStable(t *testing.T) {
	golden, err := os.ReadFile("testdata/frames.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(golden)), "\n")
	msgs := sampleMessages()
	if len(want) != len(msgs) {
		t.Fatalf("%d golden frames for %d fixtures", len(want), len(msgs))
	}
	for i, m := range msgs {
		frame, err := FastCodec{}.Marshal(m)
		if err != nil {
			t.Fatalf("fixture %d: %v", i, err)
		}
		if got := fmt.Sprintf("%T %x", m, canonicalFrame(frame)); got != want[i] {
			t.Errorf("fixture %d:\n got %s\nwant %s", i, got, want[i])
		}
	}
}

// canonicalFrame returns a CountResponse frame with its (type, count)
// pairs sorted by type — the encoder writes them in map order, so they
// compare as a set — and any other frame as it is. It reads the layout
// on its own: type ID, QueryID, Seq, NodeID, Elements, pair count.
func canonicalFrame(frame []byte) []byte {
	id, p := enc.Uvarint(frame)
	if uint16(id) != TypeCountResponse {
		return frame
	}
	for range 4 {
		_, u := enc.Uvarint(frame[p:])
		p += u
	}
	cnt, u := enc.Uvarint(frame[p:])
	p += u
	start := p
	var pairs [][]byte
	for range cnt {
		_, u := enc.Uvarint(frame[p+1:])
		pairs = append(pairs, frame[p:p+1+u])
		p += 1 + u
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i][0] < pairs[j][0] })
	out := append([]byte(nil), frame[:start]...)
	for _, pr := range pairs {
		out = append(out, pr...)
	}
	return append(out, frame[p:]...)
}

// TestFixturesCoverEveryField: every exported field of every registered
// message type, and of the structs its slices hold, is non-zero in at
// least one fixture. A field the codec forgot to carry then fails the
// round trip and the golden frames instead of decoding silently as zero.
func TestFixturesCoverEveryField(t *testing.T) {
	set := map[string]bool{}
	for _, m := range sampleMessages() {
		v := reflect.ValueOf(m).Elem()
		for i := range v.NumField() {
			f, name := v.Field(i), v.Type().Name()+"."+v.Type().Field(i).Name
			if !f.IsZero() {
				set[name] = true
			}
			if f.Kind() != reflect.Slice || f.Type().Elem().Kind() != reflect.Struct {
				continue
			}
			for j := range f.Len() {
				e := f.Index(j)
				for k := range e.NumField() {
					if !e.Field(k).IsZero() {
						set[name+"."+e.Type().Field(k).Name] = true
					}
				}
			}
		}
	}
	for id := uint16(1); ; id++ {
		m, err := New(id)
		if err != nil {
			break
		}
		typ := reflect.TypeOf(m).Elem()
		for i := range typ.NumField() {
			f := typ.Field(i)
			name := typ.Name() + "." + f.Name
			if !set[name] {
				t.Errorf("no fixture sets %s", name)
			}
			if f.Type.Kind() != reflect.Slice || f.Type.Elem().Kind() != reflect.Struct {
				continue
			}
			for k := range f.Type.Elem().NumField() {
				if sub := name + "." + f.Type.Elem().Field(k).Name; !set[sub] {
					t.Errorf("no fixture sets %s", sub)
				}
			}
		}
	}
}

// TestEveryResponseIsAReply: a client reads a node's error through
// Reply, and a node's dispatch test tells requests from responses by
// it, so every response type must implement it and no request may.
func TestEveryResponseIsAReply(t *testing.T) {
	for id := uint16(1); ; id++ {
		m, err := New(id)
		if err != nil {
			break
		}
		_, isReply := m.(Reply)
		if name := reflect.TypeOf(m).Elem().Name(); isReply != strings.HasSuffix(name, "Response") {
			t.Errorf("%s: implements Reply = %v", name, isReply)
		}
	}
}
