# Targets mirror the CI jobs (.github/workflows/ci.yml); `make build
# test` is the tier-1 verify.

.PHONY: build test test-race test-allocs test-matrix bench examples fuzz-smoke deploy-smoke lint fmt-check vet

# bench/ (the BENCHMARK.json yardstick) is its own Go module importing
# internal/..., so the root ./... never compiles it: build, vet and run
# its ~10 s toy test here, or a renamed symbol fails only when the
# benchmark runs.
build:
	go build ./...
	cd bench && go build ./... && go vet ./...

# One full pass under the race detector (and bench/'s toy test), the
# allocation pins, then the packages whose bugs depend on how many cores
# interleave them. Each CI test step runs one of the three targets.
test: test-race test-allocs test-matrix

test-race:
	go test -race -shuffle=on ./...
	cd bench && go test ./...

# The allocation pins of the client's routed operations, the read path,
# the single-cell engine write, the flush and compaction merges,
# memtable Partitions and the codec and the bloom filter's Add and
# MayContain skip themselves under -race (it changes what allocates),
# so they get a plain run of their own.
test-allocs:
	go test -run 'ZeroAlloc|Allocs' ./internal/bloom ./internal/cluster ./internal/memtable ./internal/storage ./internal/sstable ./internal/wire

# Repeated at one, two and eight Ps: the framed-RPC path and the join
# state machine five times, the storage engine (one background runner
# per shard swapping tables under lock-free readers and writers) twice.
test-matrix:
	for p in 1 2 8; do \
		GOMAXPROCS=$$p go test -race -shuffle=on -count=5 ./internal/transport ./internal/cluster || exit 1; \
		GOMAXPROCS=$$p go test -race -shuffle=on -count=2 ./internal/storage || exit 1; \
	done

# One iteration of every Go benchmark so none bit-rots, then the
# yardstick the way the pipeline runs it: all five BENCHMARK.json
# workloads on a real 4-node ring at the contract's 10 s window (the
# mixed-write compaction guard cannot pass in less), non-zero on a
# failed op or a broken validity guard. Add -trace 1 for the per-layer
# ledger, -repeat N for the spread.
bench:
	go test -run=NONE -bench=. -benchtime=1x ./...
	bash bench/run.sh

# The six example smokes, each non-zero on a violation: deploy
# (wire-level membership in one process over the peer connection pool:
# bootstrap, joins through a seed, probed peer health with failover
# reads, a restart from the persisted topology file), elastic (a node
# joins under live traffic with zero failed operations), quickstart
# (the public surface end to end, Client.Delete staying deleted across
# a forced flush), particles (the paper's case study: every D8-tree
# level returns the brute-force hit count and the census matches a
# brute-force count of the records), and the two model-only examples, capacity and
# phonebook, which start no cluster: their smoke is that they build and
# run to the end.
examples:
	go run ./examples/deploy
	go run ./examples/elastic
	go run ./examples/quickstart
	go run ./examples/particles
	go run ./examples/capacity
	go run ./examples/phonebook

# Multi-process deployment smoke: three kvstore processes form a ring
# over TCP (bootstrap + two wire-level joins), kvload drives a mixed
# workload, a fourth process joins mid-load — zero failed operations
# required. The only gate that crosses process boundaries; run on any
# change to membership, the join state machine, topology persistence
# or the CLI.
deploy-smoke:
	./scripts/deploy_smoke.sh

# Short fuzz pass over the parsers of bytes the process did not write
# itself. On disk: the block codec (decode must never panic on arbitrary
# bytes, encode→decode must round-trip), the LZ decompressor on its own
# (never panics or writes past its buffer, compress→decompress
# round-trips), the block cursor's restart-point
# seek (arbitrary payload and target never panic or read out of bounds,
# and on writer-built blocks seek agrees with a linear decode), the
# table meta (a fuzzed block index, partition directory, bloom section
# — the filter's words, refused when empty, not whole words or not a
# power of two of them — and partition count behind re-sealed CRCs
# never panic, allocate beyond a small multiple of the file or fail with
# anything but ErrCorrupt or ErrNotFound, and each partition's derived
# first block is the one a whole-index search finds), the WAL record reader (arbitrary bytes
# after a segment's intact records are a torn tail: no panic, no error,
# no allocation beyond the file), the shard manifest (every accepted
# line names one of the shard's own tables, which round-trip), the
# SHARDS file (an accepted shard count is in [1, 1024]) and the node's
# topology file (every accepted ring passes hashring.Validate and
# round-trips).
# On the socket: the TCP frame reader (arbitrary bytes in arbitrary
# segments yield exactly the whole frames in them, memory follows the
# bytes received, and valid frame sequences round-trip however the
# stream is cut) and the fast codec every frame is decoded by (no panic,
# allocation bounded by the frame whatever counts it claims, decode of
# re-encode is identity, byte fields are capped views into the frame).
# CI runs this as a smoke; local soak: raise -fuzztime.
fuzz-smoke:
	go test -run=NONE -fuzz=FuzzBlockCodec -fuzztime=10s ./internal/sstable/
	go test -run=NONE -fuzz=FuzzLZDecompress -fuzztime=10s ./internal/sstable/
	go test -run=NONE -fuzz=FuzzBlockSeek -fuzztime=10s ./internal/sstable/
	go test -run=NONE -fuzz=FuzzTableMeta -fuzztime=10s ./internal/sstable/
	go test -run=NONE -fuzz=FuzzReplayWAL -fuzztime=10s ./internal/storage/
	go test -run=NONE -fuzz=FuzzManifest -fuzztime=10s ./internal/storage/
	go test -run=NONE -fuzz=FuzzShardsFile -fuzztime=10s ./internal/storage/
	go test -run=NONE -fuzz=FuzzTopologyFile -fuzztime=10s ./internal/cluster/
	go test -run=NONE -fuzz=FuzzFrameStream -fuzztime=10s ./internal/transport/
	go test -run=NONE -fuzz=FuzzFastCodec -fuzztime=10s ./internal/wire/

lint: fmt-check vet

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	go vet ./...
