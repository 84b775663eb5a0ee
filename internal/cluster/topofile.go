package cluster

// The topology file is the node's persisted membership view: epoch,
// vnodes-per-node, replication factor and the member address book,
// written next to the engine's SHARDS manifest with the same
// tmp-fsync-rename discipline. A restarting node reads it back and
// resumes serving at the epoch it last flipped to — no external
// coordinator or seed required — so a whole-cluster restart
// reassembles the ring from disk alone.

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"scalekv/internal/hashring"
)

// topologyFileName is the membership snapshot inside a node's data dir.
const topologyFileName = "topology"

// topologyMagic heads the file; a mismatch means the file is not ours
// (or a future incompatible format) and the boot must not guess.
const topologyMagic = "scalekv-topology v1"

// saveTopologyFile atomically persists a membership snapshot in dir.
// Crash-safe: the temp file is fsynced before the rename, and the
// directory after, so a torn write can never replace a valid snapshot.
func saveTopologyFile(dir string, topo *hashring.Topology, addrs map[hashring.NodeID]string, rf int) error {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", topologyMagic)
	fmt.Fprintf(&b, "epoch %d\n", topo.Epoch())
	fmt.Fprintf(&b, "vnodes %d\n", topo.Vnodes())
	fmt.Fprintf(&b, "rf %d\n", rf)
	ids := topo.Nodes()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		fmt.Fprintf(&b, "node %d %s\n", id, addrs[id])
	}

	tmp := filepath.Join(dir, topologyFileName+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.WriteString(b.String()); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, topologyFileName)); err != nil {
		os.Remove(tmp)
		return err
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// loadTopologyFile reads dir's membership snapshot. A missing file is
// not an error: it returns a nil topology (fresh node). A present but
// unreadable or malformed file is an error — booting with guessed
// membership would let a node accept traffic it no longer owns.
func loadTopologyFile(dir string) (*hashring.Topology, map[hashring.NodeID]string, int, error) {
	f, err := os.Open(filepath.Join(dir, topologyFileName))
	if os.IsNotExist(err) {
		return nil, nil, 0, nil
	}
	if err != nil {
		return nil, nil, 0, err
	}
	defer f.Close()

	bad := func(line string) error {
		return fmt.Errorf("cluster: malformed topology file in %s: %q", dir, line)
	}
	sc := bufio.NewScanner(f)
	if !sc.Scan() || sc.Text() != topologyMagic {
		return nil, nil, 0, fmt.Errorf("cluster: topology file in %s: bad header", dir)
	}
	var (
		epoch  uint64
		vnodes int
		rf     int
		ids    []hashring.NodeID
		addrs  = make(map[hashring.NodeID]string)
	)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, "epoch "):
			if _, err := fmt.Sscanf(line, "epoch %d", &epoch); err != nil {
				return nil, nil, 0, bad(line)
			}
		case strings.HasPrefix(line, "vnodes "):
			if _, err := fmt.Sscanf(line, "vnodes %d", &vnodes); err != nil {
				return nil, nil, 0, bad(line)
			}
		case strings.HasPrefix(line, "rf "):
			if _, err := fmt.Sscanf(line, "rf %d", &rf); err != nil {
				return nil, nil, 0, bad(line)
			}
		case strings.HasPrefix(line, "node "):
			rest := strings.TrimPrefix(line, "node ")
			idStr, addr, ok := strings.Cut(rest, " ")
			var id int
			if _, err := fmt.Sscanf(idStr, "%d", &id); err != nil || !ok {
				return nil, nil, 0, bad(line)
			}
			ids = append(ids, hashring.NodeID(id))
			addrs[hashring.NodeID(id)] = addr
		default:
			return nil, nil, 0, bad(line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, 0, err
	}
	if epoch == 0 {
		return nil, nil, 0, fmt.Errorf("cluster: topology file in %s: incomplete snapshot", dir)
	}
	if err := hashring.Validate(ids, vnodes); err != nil { // vnodes and members present and bounded
		return nil, nil, 0, fmt.Errorf("cluster: topology file in %s: %w", dir, err)
	}
	return hashring.FromNodes(epoch, ids, vnodes), addrs, rf, nil
}
