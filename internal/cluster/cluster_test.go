package cluster

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"scalekv/internal/row"
	"scalekv/internal/stages"
	"scalekv/internal/storage"
	"scalekv/internal/transport"
	"scalekv/internal/wire"
)

func startTest(t *testing.T, opts LocalOptions) *Cluster {
	t.Helper()
	if opts.Storage.FlushThreshold == 0 {
		opts.Storage = storage.Options{DisableWAL: true}
	}
	c, err := StartLocal(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestOnlyNonBlockingOpsRunInline pins which requests Node.handle
// answers on the connection's reader goroutine, for every request type
// in the wire registry: each must have a row in the dispatch table, and
// handle must follow the row. Adding a message to the inline set is a
// claim that it can never wait on another RPC or on engine backpressure.
func TestOnlyNonBlockingOpsRunInline(t *testing.T) {
	c := startTest(t, LocalOptions{Nodes: 1})
	n := c.Nodes[0]
	wantInline := map[uint16]bool{
		wire.TypeGetRequest:       true,
		wire.TypeCountRequest:     true,
		wire.TypePingRequest:      true,
		wire.TypeRingStateRequest: true,
	}
	requests := 0
	for id := uint16(1); ; id++ {
		req, err := wire.New(id)
		if err != nil {
			break
		}
		if _, isReply := req.(wire.Reply); isReply {
			continue
		}
		requests++
		if int(id) >= len(ops) || ops[id].serve == nil {
			t.Errorf("%T: no dispatch row", req)
			continue
		}
		if ops[id].inline != wantInline[id] {
			t.Errorf("%T: row inline=%v, want %v", req, ops[id].inline, wantInline[id])
		}
		payload, err := codec.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		resp, rest := n.handle(payload)
		if (rest == nil) != ops[id].inline || (resp != nil) != ops[id].inline {
			t.Errorf("%T: inline=%v, want %v", req, rest == nil, ops[id].inline)
			continue
		}
		if rest != nil {
			resp = rest()
		}
		if _, err := codec.Unmarshal(resp); err != nil {
			t.Errorf("%T: response does not decode: %v", req, err)
		}
	}
	if requests == 0 {
		t.Error("the registry holds no request types")
	}
	if resp, rest := n.handle([]byte{0xff, 0xfe}); rest != nil || resp == nil {
		t.Error("a frame that does not decode must be answered inline")
	}
}

// TestUnservedFramesGetAnErrorResponse: a frame the node cannot decode
// (an unknown type ID) and a message it does not serve (a response sent
// as a request) are answered with an ErrorResponse carrying the node's
// text, and the client's typed paths report that text as a non-retryable
// error instead of an unexpected reply type.
func TestUnservedFramesGetAnErrorResponse(t *testing.T) {
	c := startTest(t, LocalOptions{Nodes: 1})
	conn, err := c.dial(c.addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	putResp, err := codec.Marshal(&wire.PutResponse{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		frame []byte
		want  string
	}{
		{"unknown type ID", []byte{0x7f}, "bad frame: wire: unknown message type 127"},
		{"response as request", putResp, "unexpected message *wire.PutResponse"},
	} {
		raw, err := conn.Call(tc.frame)
		if err != nil {
			t.Fatal(err)
		}
		msg, err := codec.Unmarshal(raw)
		if er, ok := msg.(*wire.ErrorResponse); err != nil || !ok || er.ErrMsg != tc.want {
			t.Errorf("%s: reply %#v, %v; want ErrorResponse %q", tc.name, msg, err, tc.want)
		}
		ch := make(chan []byte, 1)
		ch <- raw
		for path, err := range map[string]error{
			"decode":  func() error { _, err := decode[*wire.GetResponse](raw); return err }(),
			"reapPut": c.Client().reapPut(ch),
		} {
			if err == nil || !strings.Contains(err.Error(), tc.want) || isRetryable(err) {
				t.Errorf("%s via %s: %v, want a non-retryable error naming %q", tc.name, path, err, tc.want)
			}
		}
	}
	if _, err := call[*wire.GetResponse](conn, &wire.PutResponse{}); err == nil ||
		!strings.Contains(err.Error(), "unexpected message *wire.PutResponse") {
		t.Errorf("call: %v, want the node's text", err)
	}
}

func TestPutGetAcrossNodes(t *testing.T) {
	c := startTest(t, LocalOptions{Nodes: 4})
	cli := c.Client()
	for i := 0; i < 50; i++ {
		pk := fmt.Sprintf("part-%d", i)
		if err := cli.Put(pk, []byte("ck"), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		pk := fmt.Sprintf("part-%d", i)
		v, found, err := cli.Get(pk, []byte("ck"))
		if err != nil || !found {
			t.Fatalf("get %s: %v found=%v", pk, err, found)
		}
		if string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("get %s = %q", pk, v)
		}
	}
	// Keys must actually spread across nodes.
	nodesWithData := 0
	for _, n := range c.Nodes {
		if len(enginePartitions(t, n)) > 0 {
			nodesWithData++
		}
	}
	if nodesWithData < 3 {
		t.Fatalf("only %d/4 nodes hold data", nodesWithData)
	}
}

func TestGetAbsent(t *testing.T) {
	c := startTest(t, LocalOptions{Nodes: 2})
	_, found, err := c.Client().Get("ghost", []byte("ck"))
	if err != nil || found {
		t.Fatalf("absent get: %v found=%v", err, found)
	}
}

func TestScan(t *testing.T) {
	c := startTest(t, LocalOptions{Nodes: 3})
	cli := c.Client()
	for i := 0; i < 20; i++ {
		cli.Put("scanpart", []byte{byte(i)}, []byte{byte(i)})
	}
	cells, err := cli.Scan("scanpart", []byte{5}, []byte{10})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 5 {
		t.Fatalf("scan returned %d cells want 5", len(cells))
	}
	all, err := cli.Scan("scanpart", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 20 {
		t.Fatalf("unbounded scan returned %d want 20", len(all))
	}
}

func TestReplicationFactor(t *testing.T) {
	c := startTest(t, LocalOptions{Nodes: 3, ReplicationFactor: 3})
	cli := c.Client()
	cli.Put("replicated", []byte("ck"), []byte("v"))
	c.FlushAll()
	// With rf = nodes every node must hold the partition.
	for _, n := range c.Nodes {
		cells, err := n.Engine().ScanPartition("replicated", nil, nil)
		if err != nil || len(cells) != 1 {
			t.Fatalf("node %d: cells=%d err=%v", n.ID(), len(cells), err)
		}
	}
}

func TestCountByType(t *testing.T) {
	c := startTest(t, LocalOptions{Nodes: 2})
	cli := c.Client()
	for i := 0; i < 60; i++ {
		// First byte of the value is the element type.
		cli.Put("cube", []byte{byte(i)}, []byte{byte(i % 3), 0xAA})
	}
	counts, elements, err := cli.Count("cube")
	if err != nil {
		t.Fatal(err)
	}
	if elements != 60 {
		t.Fatalf("elements %d want 60", elements)
	}
	for ty := uint8(0); ty < 3; ty++ {
		if counts[ty] != 20 {
			t.Fatalf("type %d count %d want 20", ty, counts[ty])
		}
	}
}

func loadPartitions(t *testing.T, c *Cluster, nParts, elemsPer int) []string {
	t.Helper()
	cli := c.Client()
	pks := make([]string, nParts)
	for p := 0; p < nParts; p++ {
		pk := fmt.Sprintf("cube-%04d", p)
		pks[p] = pk
		for e := 0; e < elemsPer; e++ {
			ck := []byte(fmt.Sprintf("%06d", e))
			if err := cli.Put(pk, ck, []byte{byte(e % 4), 1, 2, 3}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	return pks
}

func TestCountAllAggregates(t *testing.T) {
	c := startTest(t, LocalOptions{Nodes: 4})
	pks := loadPartitions(t, c, 40, 25) // 1000 elements total
	res, err := c.Client().CountAll(pks, MasterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Elements != 1000 {
		t.Fatalf("elements %d want 1000", res.Elements)
	}
	var sum uint64
	for _, n := range res.Counts {
		sum += n
	}
	if sum != 1000 {
		t.Fatalf("counts sum %d want 1000", sum)
	}
	if res.Errors != 0 {
		t.Fatalf("%d errors", res.Errors)
	}
	if res.Duration <= 0 || res.SendDuration <= 0 {
		t.Fatal("durations not measured")
	}
}

func TestCountAllTraceIsComplete(t *testing.T) {
	c := startTest(t, LocalOptions{Nodes: 2})
	pks := loadPartitions(t, c, 10, 10)
	res, err := c.Client().CountAll(pks, MasterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Four spans per request.
	if res.Trace.Len() != 4*len(pks) {
		t.Fatalf("trace has %d spans want %d", res.Trace.Len(), 4*len(pks))
	}
	// Each request appears once in the DB stage; ops match the trace.
	ops := res.Trace.OpsPerNode()
	totalOps := 0
	for _, n := range ops {
		totalOps += n
	}
	if totalOps != len(pks) {
		t.Fatalf("trace DB ops %d want %d", totalOps, len(pks))
	}
	for node, n := range res.OpsPerNode {
		if ops[node] != n {
			t.Fatalf("node %d: trace ops %d vs result ops %d", node, ops[node], n)
		}
	}
}

func TestCountAllOpsMatchNodeCounters(t *testing.T) {
	c := startTest(t, LocalOptions{Nodes: 4})
	pks := loadPartitions(t, c, 32, 5)
	res, err := c.Client().CountAll(pks, MasterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range c.Nodes {
		if got := n.Served.Load(); got != int64(res.OpsPerNode[int(n.ID())]) {
			t.Fatalf("node %d served %d vs master saw %d", n.ID(), got, res.OpsPerNode[int(n.ID())])
		}
	}
}

func TestVerboseMasterSlower(t *testing.T) {
	c := startTest(t, LocalOptions{Nodes: 2})
	pks := loadPartitions(t, c, 200, 2)
	var log bytes.Buffer
	verbose, err := c.Client().CountAll(pks, MasterOptions{Verbose: true, LogSink: &log})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(log.String(), "crc=") {
		t.Fatal("verbose mode produced no log lines")
	}
	plain, err := c.Client().CountAll(pks, MasterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if verbose.Elements != plain.Elements {
		t.Fatalf("verbose changed results: %d vs %d", verbose.Elements, plain.Elements)
	}
	// Verbose mode must cost more master send time. Wall-clock noise on
	// tiny runs is real (especially under -race in CI), so only require
	// it not be dramatically faster, and retry before failing: a single
	// scheduler hiccup on the plain run must not red-flag the suite.
	for attempt := 0; verbose.SendDuration < plain.SendDuration/2; attempt++ {
		if attempt == 3 {
			t.Fatalf("verbose send %v consistently below plain %v", verbose.SendDuration, plain.SendDuration)
		}
		if verbose, err = c.Client().CountAll(pks, MasterOptions{Verbose: true, LogSink: &log}); err != nil {
			t.Fatal(err)
		}
		if plain, err = c.Client().CountAll(pks, MasterOptions{}); err != nil {
			t.Fatal(err)
		}
	}
}

func imbalanceOf(ops map[int]int, nodes int) float64 {
	total, max := 0, 0
	for _, n := range ops {
		total += n
		if n > max {
			max = n
		}
	}
	mean := float64(total) / float64(nodes)
	return (float64(max) - mean) / mean
}

func TestReplicaSelectionBalancesLoad(t *testing.T) {
	// With rf=3 over 4 nodes, least-issued replica selection must beat
	// primary-only routing on load balance.
	c := startTest(t, LocalOptions{Nodes: 4, ReplicationFactor: 3})
	pks := loadPartitions(t, c, 60, 5)

	primary, err := c.Client().CountAll(pks, MasterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	selected, err := c.Client().CountAll(pks, MasterOptions{SelectReplica: true})
	if err != nil {
		t.Fatal(err)
	}
	if selected.Elements != primary.Elements {
		t.Fatalf("replica selection changed results: %d vs %d", selected.Elements, primary.Elements)
	}
	pImb := imbalanceOf(primary.OpsPerNode, 4)
	sImb := imbalanceOf(selected.OpsPerNode, 4)
	if sImb >= pImb {
		t.Fatalf("replica selection imbalance %.2f not below primary %.2f", sImb, pImb)
	}
	// With 60 keys and 3-of-4 replicas, least-issued should be nearly
	// perfectly balanced.
	if sImb > 0.15 {
		t.Fatalf("replica-selected imbalance %.2f, want near zero", sImb)
	}
}

func TestReplicaSelectionWithoutReplicasIsSafe(t *testing.T) {
	// rf=1: selection has no choices; results must still be correct.
	c := startTest(t, LocalOptions{Nodes: 3})
	pks := loadPartitions(t, c, 20, 4)
	res, err := c.Client().CountAll(pks, MasterOptions{SelectReplica: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Elements != 80 || res.Errors != 0 {
		t.Fatalf("elements %d errors %d", res.Elements, res.Errors)
	}
}

func TestCountAllNodeFailure(t *testing.T) {
	// Killing one node mid-cluster must surface as per-request errors,
	// not a hang or a wrong total.
	c := startTest(t, LocalOptions{Nodes: 3})
	pks := loadPartitions(t, c, 30, 2)
	victim := c.Nodes[1]
	victim.Close()
	res, err := c.Client().CountAll(pks, MasterOptions{})
	if err != nil {
		// The send itself may fail if the victim owned the first key;
		// that is an acceptable failure mode too.
		return
	}
	expectedLost := 0
	for _, pk := range pks {
		if c.Topology().Primary(pk) == victim.ID() {
			expectedLost++
		}
	}
	if res.Errors != expectedLost {
		t.Fatalf("errors %d want %d (keys owned by dead node)", res.Errors, expectedLost)
	}
	if res.Elements != uint64(2*(len(pks)-expectedLost)) {
		t.Fatalf("elements %d inconsistent with %d lost partitions", res.Elements, expectedLost)
	}
}

func TestStageSpansAreOrdered(t *testing.T) {
	c := startTest(t, LocalOptions{Nodes: 2})
	pks := loadPartitions(t, c, 20, 10)
	res, err := c.Client().CountAll(pks, MasterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	byReq := map[uint64]map[stages.Stage]stages.Span{}
	for _, s := range res.Trace.Spans() {
		if byReq[s.RequestID] == nil {
			byReq[s.RequestID] = map[stages.Stage]stages.Span{}
		}
		byReq[s.RequestID][s.Stage] = s
	}
	for id, spans := range byReq {
		m2s, q, db, s2m := spans[stages.MasterToSlave], spans[stages.InQueue], spans[stages.InDB], spans[stages.SlaveToMaster]
		if !(m2s.End <= q.Start+1 && q.End <= db.Start+1 && db.End <= s2m.Start+1) {
			t.Fatalf("request %d: stages out of order: %v %v %v %v", id, m2s, q, db, s2m)
		}
	}
}

func TestTCPNode(t *testing.T) {
	l, err := transport.ListenTCP("127.0.0.1:0", 0)
	if err != nil {
		t.Fatal(err)
	}
	node, err := StartNode(l, NodeOptions{ID: 0, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	conn, err := transport.DialTCP(l.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	cli := transport.NewClient(conn)
	defer cli.Close()
	codec := wire.FastCodec{}
	payload, _ := codec.Marshal(&wire.PutRequest{PK: "tcp", CK: []byte("ck"), Value: []byte{7}})
	resp, err := cli.Call(payload)
	if err != nil {
		t.Fatal(err)
	}
	msg, err := codec.Unmarshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	if pr := msg.(*wire.PutResponse); pr.ErrMsg != "" {
		t.Fatal(pr.ErrMsg)
	}
	v, found, _ := node.Engine().Get("tcp", []byte("ck"))
	if !found || v[0] != 7 {
		t.Fatalf("value not stored over TCP: %v %v", v, found)
	}
}

func TestStartLocalValidation(t *testing.T) {
	if _, err := StartLocal(LocalOptions{Nodes: 0}); err == nil {
		t.Fatal("zero nodes accepted")
	}
	if _, err := StartTCP(LocalOptions{Nodes: 0}); err == nil {
		t.Fatal("zero TCP nodes accepted")
	}
}

func TestTCPClusterEndToEnd(t *testing.T) {
	c, err := StartTCP(LocalOptions{Nodes: 3, Storage: storage.Options{DisableWAL: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cli := c.Client()
	pks := make([]string, 24)
	for p := range pks {
		pk := fmt.Sprintf("tcp-%03d", p)
		pks[p] = pk
		for e := 0; e < 10; e++ {
			if err := cli.Put(pk, []byte{byte(e)}, []byte{byte(e % 2)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	res, err := cli.CountAll(pks, MasterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Elements != 240 || res.Errors != 0 {
		t.Fatalf("elements %d errors %d over TCP", res.Elements, res.Errors)
	}
}

// batchTestEntries builds a deterministic multi-partition workload.
func batchTestEntries(nParts, elemsPer int) []row.Entry {
	entries := make([]row.Entry, 0, nParts*elemsPer)
	for p := 0; p < nParts; p++ {
		pk := fmt.Sprintf("cube-%04d", p)
		for e := 0; e < elemsPer; e++ {
			entries = append(entries, row.Entry{
				PK: pk, CK: []byte(fmt.Sprintf("%06d", e)),
				Value: []byte{byte(e % 4), byte(p), byte(e)},
			})
		}
	}
	return entries
}

// enginePartitions lists the partitions a node's engine holds.
func enginePartitions(t *testing.T, n *Node) []string {
	t.Helper()
	pks, err := n.Engine().Partitions()
	if err != nil {
		t.Fatal(err)
	}
	return pks
}

// engineDump captures every node's on-disk state as node -> pk -> cells.
func engineDump(t *testing.T, c *Cluster) map[int]map[string][]row.Cell {
	t.Helper()
	out := make(map[int]map[string][]row.Cell)
	for _, n := range c.Nodes {
		parts := make(map[string][]row.Cell)
		for _, pk := range enginePartitions(t, n) {
			cells, err := n.Engine().ScanPartition(pk, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			// Normalize versions: two load paths stamp the same logical
			// writes in different per-node arrival orders, so equality is
			// over placement and content, not stamps.
			norm := make([]row.Cell, len(cells))
			for i, c := range cells {
				c.Ver = row.Version{}
				norm[i] = c
			}
			parts[pk] = norm
		}
		out[int(n.ID())] = parts
	}
	return out
}

func TestBatchedEqualsSinglePuts(t *testing.T) {
	// N single Puts and one batched flush must leave identical engine
	// state on every node — including replica placement under RF>1.
	for _, rf := range []int{1, 3} {
		t.Run(fmt.Sprintf("rf=%d", rf), func(t *testing.T) {
			entries := batchTestEntries(30, 10)

			single := startTest(t, LocalOptions{Nodes: 4, ReplicationFactor: rf})
			for _, e := range entries {
				if err := single.Client().Put(e.PK, e.CK, e.Value); err != nil {
					t.Fatal(err)
				}
			}

			batched := startTest(t, LocalOptions{Nodes: 4, ReplicationFactor: rf})
			bt := batched.Client().NewBatcher(BatcherOptions{MaxEntries: 16})
			for _, e := range entries {
				if err := bt.Put(e.PK, e.CK, e.Value); err != nil {
					t.Fatal(err)
				}
			}
			if err := bt.Close(); err != nil {
				t.Fatal(err)
			}

			if err := single.FlushAll(); err != nil {
				t.Fatal(err)
			}
			if err := batched.FlushAll(); err != nil {
				t.Fatal(err)
			}
			want, got := engineDump(t, single), engineDump(t, batched)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("batched state diverged from single-put state\nwant: %d nodes %v\ngot:  %d nodes %v",
					len(want), nodePartCounts(want), len(got), nodePartCounts(got))
			}
		})
	}
}

func nodePartCounts(dump map[int]map[string][]row.Cell) map[int]int {
	out := make(map[int]int)
	for node, parts := range dump {
		out[node] = len(parts)
	}
	return out
}

func TestClientPutBatch(t *testing.T) {
	c := startTest(t, LocalOptions{Nodes: 3, ReplicationFactor: 2})
	entries := batchTestEntries(20, 5)
	if err := c.Client().PutBatch(entries); err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		v, found, err := c.Client().Get(e.PK, e.CK)
		if err != nil || !found || !bytes.Equal(v, e.Value) {
			t.Fatalf("get %s/%s: %v found=%v v=%v", e.PK, e.CK, err, found, v)
		}
	}
	// Replica placement: every replica of each partition must hold it.
	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 20; p++ {
		pk := fmt.Sprintf("cube-%04d", p)
		for _, node := range c.Topology().Replicas(pk, 2) {
			cells, err := c.Nodes[node].Engine().ScanPartition(pk, nil, nil)
			if err != nil || len(cells) != 5 {
				t.Fatalf("replica %d of %s holds %d cells: %v", node, pk, len(cells), err)
			}
		}
	}
	if err := c.Client().PutBatch(nil); err != nil {
		t.Fatal("empty batch errored:", err)
	}
}

func TestBatcherFlushesOnEntryThreshold(t *testing.T) {
	c := startTest(t, LocalOptions{Nodes: 1})
	bt := c.Client().NewBatcher(BatcherOptions{MaxEntries: 8})
	// 7 entries: below threshold, nothing ships.
	for i := 0; i < 7; i++ {
		if err := bt.Put("part", []byte{byte(i)}, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if pending, inflight := bt.Pending(); pending != 7 || inflight != 0 {
		t.Fatalf("pending=%d inflight=%d want 7,0", pending, inflight)
	}
	if n := len(enginePartitions(t, c.Nodes[0])); n != 0 {
		t.Fatalf("engine saw data before threshold: %d partitions", n)
	}
	// The 8th entry crosses the threshold and ships the batch.
	if err := bt.Put("part", []byte{7}, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if pending, _ := bt.Pending(); pending != 0 {
		t.Fatalf("pending=%d after threshold flush", pending)
	}
	if err := bt.Close(); err != nil {
		t.Fatal(err)
	}
	cells, err := c.Nodes[0].Engine().ScanPartition("part", nil, nil)
	if err != nil || len(cells) != 8 {
		t.Fatalf("engine holds %d cells want 8: %v", len(cells), err)
	}
}

func TestBatcherFlushesOnByteThreshold(t *testing.T) {
	c := startTest(t, LocalOptions{Nodes: 1})
	bt := c.Client().NewBatcher(BatcherOptions{MaxEntries: 1 << 20, MaxBytes: 1 << 10})
	big := make([]byte, 600)
	bt.Put("part", []byte{0}, big)
	if pending, _ := bt.Pending(); pending != 1 {
		t.Fatalf("pending=%d want 1", pending)
	}
	bt.Put("part", []byte{1}, big) // crosses 1KB
	if pending, _ := bt.Pending(); pending != 0 {
		t.Fatalf("pending=%d after byte-threshold flush", pending)
	}
	if err := bt.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestBatcherBoundedWindow(t *testing.T) {
	c := startTest(t, LocalOptions{Nodes: 1})
	bt := c.Client().NewBatcher(BatcherOptions{MaxEntries: 2, MaxInFlight: 2})
	// Many threshold flushes against a window of 2: Add must block on the
	// oldest ack rather than queueing unbounded in-flight batches.
	for i := 0; i < 100; i++ {
		if err := bt.Put("part", []byte{byte(i / 10), byte(i % 10)}, []byte("v")); err != nil {
			t.Fatal(err)
		}
		if _, inflight := bt.Pending(); inflight > 2 {
			t.Fatalf("window exceeded: %d in flight", inflight)
		}
	}
	if err := bt.Close(); err != nil {
		t.Fatal(err)
	}
	cells, err := c.Nodes[0].Engine().ScanPartition("part", nil, nil)
	if err != nil || len(cells) != 100 {
		t.Fatalf("engine holds %d cells want 100: %v", len(cells), err)
	}
}

func TestBatcherErrorIsSticky(t *testing.T) {
	c := startTest(t, LocalOptions{Nodes: 2})
	bt := c.Client().NewBatcher(BatcherOptions{MaxEntries: 4})
	c.Nodes[0].Close()
	c.Nodes[1].Close()
	var sawErr error
	for i := 0; i < 200 && sawErr == nil; i++ {
		sawErr = bt.Put(fmt.Sprintf("part-%d", i), []byte{0}, []byte("v"))
	}
	if sawErr == nil {
		sawErr = bt.Flush()
	}
	if sawErr == nil {
		t.Fatal("writes against dead nodes reported no error")
	}
	if err := bt.Close(); err == nil {
		t.Fatal("Close cleared the sticky error")
	}
}

func TestBulkLoadParallelWorkers(t *testing.T) {
	c := startTest(t, LocalOptions{Nodes: 3, ReplicationFactor: 2})
	entries := batchTestEntries(40, 8)
	if err := c.Client().BulkLoad(entries, 4, BatcherOptions{MaxEntries: 16}); err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		v, found, err := c.Client().Get(e.PK, e.CK)
		if err != nil || !found || !bytes.Equal(v, e.Value) {
			t.Fatalf("get %s/%s after bulk load: %v found=%v", e.PK, e.CK, err, found)
		}
	}
	// Single-worker path.
	c2 := startTest(t, LocalOptions{Nodes: 2})
	if err := c2.Client().BulkLoad(entries[:50], 1, BatcherOptions{}); err != nil {
		t.Fatal(err)
	}
	if v, found, _ := c2.Client().Get(entries[0].PK, entries[0].CK); !found || !bytes.Equal(v, entries[0].Value) {
		t.Fatal("single-worker bulk load lost data")
	}
}

func TestBatcherReusedScratchBuffersAreCopied(t *testing.T) {
	// Callers may reuse one scratch buffer across Puts; the batcher must
	// copy, or every buffered entry aliases the last iteration's bytes.
	c := startTest(t, LocalOptions{Nodes: 1})
	bt := c.Client().NewBatcher(BatcherOptions{MaxEntries: 64})
	ck := make([]byte, 1)
	val := make([]byte, 1)
	for i := 0; i < 32; i++ {
		ck[0] = byte(i)
		val[0] = byte(100 + i)
		if err := bt.Put("scratch", ck, val); err != nil {
			t.Fatal(err)
		}
	}
	if err := bt.Close(); err != nil {
		t.Fatal(err)
	}
	cells, err := c.Nodes[0].Engine().ScanPartition("scratch", nil, nil)
	if err != nil || len(cells) != 32 {
		t.Fatalf("engine holds %d cells want 32: %v", len(cells), err)
	}
	for i, cell := range cells {
		if cell.CK[0] != byte(i) || cell.Value[0] != byte(100+i) {
			t.Fatalf("cell %d corrupted by buffer reuse: ck=%v value=%v", i, cell.CK, cell.Value)
		}
	}
}

func TestBatcherPutAfterCloseErrors(t *testing.T) {
	c := startTest(t, LocalOptions{Nodes: 1})
	bt := c.Client().NewBatcher(BatcherOptions{})
	if err := bt.Put("p", []byte{1}, []byte{2}); err != nil {
		t.Fatal(err)
	}
	if err := bt.Close(); err != nil {
		t.Fatal(err)
	}
	if err := bt.Put("p", []byte{2}, []byte{3}); err == nil {
		t.Fatal("Put on a closed batcher succeeded")
	}
	if err := bt.Close(); err != nil {
		t.Fatalf("second Close errored: %v", err)
	}
}

func TestMultiGet(t *testing.T) {
	c := startTest(t, LocalOptions{Nodes: 4})
	entries := batchTestEntries(25, 4)
	if err := c.Client().PutBatch(entries); err != nil {
		t.Fatal(err)
	}
	keys := make([]wire.GetKey, 0, len(entries)+1)
	for _, e := range entries {
		keys = append(keys, wire.GetKey{PK: e.PK, CK: e.CK})
	}
	keys = append(keys, wire.GetKey{PK: "ghost", CK: []byte{0}})
	values, err := c.Client().MultiGet(keys)
	if err != nil {
		t.Fatal(err)
	}
	if len(values) != len(keys) {
		t.Fatalf("%d values for %d keys", len(values), len(keys))
	}
	for i, e := range entries {
		if !values[i].Found || !bytes.Equal(values[i].Value, e.Value) {
			t.Fatalf("key %d: found=%v value=%v want %v", i, values[i].Found, values[i].Value, e.Value)
		}
	}
	if values[len(keys)-1].Found {
		t.Fatal("absent key reported found")
	}
	empty, err := c.Client().MultiGet(nil)
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty multi-get: %v %v", empty, err)
	}
}

func TestConcurrentReplicaPutAllReplicasLand(t *testing.T) {
	// The concurrent fan-out must still write every replica.
	c := startTest(t, LocalOptions{Nodes: 4, ReplicationFactor: 3})
	for i := 0; i < 30; i++ {
		pk := fmt.Sprintf("part-%d", i)
		if err := c.Client().Put(pk, []byte("ck"), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		pk := fmt.Sprintf("part-%d", i)
		for _, node := range c.Topology().Replicas(pk, 3) {
			cells, err := c.Nodes[node].Engine().ScanPartition(pk, nil, nil)
			if err != nil || len(cells) != 1 {
				t.Fatalf("replica %d of %s: cells=%d err=%v", node, pk, len(cells), err)
			}
		}
	}
}

func TestBatchOverTCP(t *testing.T) {
	c, err := StartTCP(LocalOptions{Nodes: 2, ReplicationFactor: 2, Storage: storage.Options{DisableWAL: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	bt := c.Client().NewBatcher(BatcherOptions{MaxEntries: 32})
	entries := batchTestEntries(10, 8)
	for _, e := range entries {
		if err := bt.Put(e.PK, e.CK, e.Value); err != nil {
			t.Fatal(err)
		}
	}
	if err := bt.Close(); err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		v, found, err := c.Client().Get(e.PK, e.CK)
		if err != nil || !found || !bytes.Equal(v, e.Value) {
			t.Fatalf("get over TCP %s/%s: %v found=%v", e.PK, e.CK, err, found)
		}
	}
}

func BenchmarkCountAll100Keys4Nodes(b *testing.B) {
	c, err := StartLocal(LocalOptions{Nodes: 4, Storage: storage.Options{DisableWAL: true}})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	cli := c.Client()
	pks := make([]string, 100)
	for p := range pks {
		pk := fmt.Sprintf("cube-%04d", p)
		pks[p] = pk
		for e := 0; e < 100; e++ {
			cli.Put(pk, []byte(fmt.Sprintf("%06d", e)), []byte{byte(e % 4)})
		}
	}
	c.FlushAll()
	for _, n := range c.Nodes { // time the settled tree, not its compactions
		n.Engine().WaitIdle()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cli.CountAll(pks, MasterOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
