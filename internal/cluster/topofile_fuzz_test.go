package cluster

import (
	"maps"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"scalekv/internal/hashring"
)

// FuzzTopologyFile: the topology file is read at every node start, and
// its vnode count and member list size the ring the node builds. Any
// bytes must load or fail without a panic; every file that loads passes
// hashring.Validate, and saving what loaded reads back as the same
// epoch, vnodes, rf and address book. Seeds: a billion vnodes, which
// made the node derive that many tokens per member before the validator,
// and a member listed twice.
func FuzzTopologyFile(f *testing.F) {
	f.Add([]byte(topologyMagic + "\nepoch 3\nvnodes 16\nrf 2\nnode 0 127.0.0.1:7000\nnode 1 127.0.0.1:7001\n"))
	f.Add([]byte(topologyMagic + "\nepoch 1\nvnodes 1000000000\nrf 1\nnode 0 127.0.0.1:7000\n"))
	f.Add([]byte(topologyMagic + "\nepoch 1\nvnodes 8\nrf 1\nnode 0 127.0.0.1:7000\nnode 0 127.0.0.1:7001\n"))
	f.Add([]byte(topologyMagic + "\nepoch 2\nvnodes 8\nnode -1 \r\n\nnode 4 a b\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, topologyFileName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		topo, addrs, rf, err := loadTopologyFile(dir)
		if err != nil {
			return
		}
		if topo == nil {
			t.Fatal("a present topology file loaded as no topology")
		}
		if err := hashring.Validate(topo.Nodes(), topo.Vnodes()); err != nil {
			t.Fatalf("loaded a ring the validator refuses: %v", err)
		}
		again := t.TempDir()
		if err := saveTopologyFile(again, topo, addrs, rf); err != nil {
			t.Fatal(err)
		}
		topo2, addrs2, rf2, err := loadTopologyFile(again)
		if err != nil {
			t.Fatalf("the saved file does not load: %v", err)
		}
		if topo2.Epoch() != topo.Epoch() || topo2.Vnodes() != topo.Vnodes() || rf2 != rf ||
			!slices.Equal(topo2.Nodes(), topo.Nodes()) || !maps.Equal(addrs2, addrs) {
			t.Fatalf("round trip changed the snapshot: epoch %d vnodes %d rf %d %v %q, was epoch %d vnodes %d rf %d %v %q",
				topo2.Epoch(), topo2.Vnodes(), rf2, topo2.Nodes(), addrs2, topo.Epoch(), topo.Vnodes(), rf, topo.Nodes(), addrs)
		}
	})
}
