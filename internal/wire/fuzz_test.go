package wire

import (
	"math"
	"reflect"
	"runtime"
	"testing"
)

// FuzzFastCodec feeds the fast decoder — the one every byte off a socket
// reaches — arbitrary frames. It pins four properties:
//
//  1. decode never panics;
//  2. decode allocates at most a small multiple of the frame, whatever
//     element counts the frame claims;
//  3. what decodes re-encodes to a frame that decodes to the same
//     message;
//  4. every decoded []byte field is a capped view into the frame
//     (checkViews): the zero-copy contract and its append guard.
func FuzzFastCodec(f *testing.F) {
	for _, m := range sampleMessages() {
		data, err := FastCodec{}.Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, hc := range hugeCountFrames() {
		f.Add(hc.frame)
	}
	f.Add(wideTypeIDFrame(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		// The least of three decodes: the fuzzing engine allocates on
		// goroutines of its own while one runs, and the 64 KB of slack
		// below absorbs what is left of that.
		var m Message
		var err error
		grew := uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			m, err = FastCodec{}.Unmarshal(data)
			runtime.ReadMemStats(&after)
			grew = min(grew, after.TotalAlloc-before.TotalAlloc)
		}
		// The widest element per wire byte is a MultiGet key: 40 bytes
		// of struct for a 2-byte minimum encoding. A count the frame
		// does not back used to ask for gigabytes here.
		if grew > 32*uint64(len(data))+64<<10 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			return
		}
		checkViews(t, data, m)
		again, err := FastCodec{}.Marshal(m)
		if err != nil {
			t.Fatalf("re-encode of %T: %v", m, err)
		}
		back, err := FastCodec{}.Unmarshal(again)
		if err != nil {
			t.Fatalf("decode of re-encoded %T: %v", m, err)
		}
		if !reflect.DeepEqual(back, m) {
			t.Fatalf("round trip changed the message\n in: %#v\nout: %#v", m, back)
		}
	})
}
