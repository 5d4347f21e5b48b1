GO ?= go

.PHONY: all build test check lint charmvet vet-baseline race fuzz bench collectives vet profile chaos gen gencheck bench/dispatch bench/manychares introspect serve serving

all: build

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

vet:
	$(GO) vet ./...

# charmvet enforces the CharmGo model invariants the compiler cannot see
# (entry-method signatures, gob safety, PE-blocking calls, nil-guarded
# instrumentation, wire-buffer ownership, zero-copy alias lifetimes,
# migration safety, entry-method races). See DESIGN.md §3.3 and §3.7.
# The JSON report is schema-checked by vetcheck, which fails on any finding
# not recorded in the committed baseline (charmvet_baseline.json).
charmvet:
	$(GO) run ./cmd/charmvet -json -baseline charmvet_baseline.json ./... | $(GO) run ./cmd/vetcheck

# vet-baseline regenerates charmvet_baseline.json from the current findings,
# keeping justifications for entries that still occur. Use it only to accept
# a finding deliberately — fixes should delete entries, and charmvet warns
# about stale ones.
vet-baseline:
	$(GO) run ./cmd/charmvet -baseline charmvet_baseline.json -write-baseline ./...

lint: vet charmvet

# gen (re)writes charmgo_gen.go typed dispatch/codec bindings for every
# package defining chare types — the charmxi analog (DESIGN.md §codegen).
# gencheck verifies the committed bindings are fresh without writing; it is
# part of `make check` so entry-method drift fails CI.
gen:
	$(GO) run ./cmd/charmgo gen ./...

gencheck:
	$(GO) run ./cmd/charmgo gen -check ./...

# chaos runs the fault-tolerance suite (failure detection, buddy
# checkpointing, kill-one-node recovery, chaos transport) under the race
# detector. See DESIGN.md §3.4 and EXPERIMENTS.md.
chaos:
	$(GO) test -race -count=1 ./internal/ft/

# serve is the elastic-serving smoke (DESIGN.md §3.8): a 3-node kvservice
# cluster absorbs one planned node join and one planned node leave under
# continuous load, and the run must end with zero lost requests, every key
# readable, a finite p99 and no failure-detector false positives.
serve:
	$(GO) run ./examples/kvservice -check -seconds 6

# serving regenerates BENCH_serving.json (open-loop latency/saturation cells
# incl. join-mid-run and leave-mid-run; see EXPERIMENTS.md §serving).
serving:
	$(GO) run ./cmd/kvbench

# check is the CI gate: build everything, lint (go vet + charmvet), verify
# generated bindings are fresh, run the full test suite under the race
# detector, then the chaos/recovery suite, the live-introspection smoke and
# the elastic-serving smoke.
check: build lint gencheck
	$(GO) test -race ./...
	$(MAKE) chaos
	$(MAKE) introspect
	$(MAKE) serve

race:
	$(GO) test -race ./...

# fuzz runs each native fuzz target briefly against the committed seed
# corpora plus fresh mutations; CI-sized smoke, not a campaign.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzDecodeFrame -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzDecodeInvoke -fuzztime 10s ./internal/ser

bench:
	$(GO) test -run xxx -bench BenchmarkRemoteInvokeRate -benchtime 2s .
	$(GO) test -run xxx -bench 'BenchmarkEncodeMsgInvoke|BenchmarkDecodeMsgInvoke|BenchmarkMailbox' ./internal/core/
	$(GO) test -run xxx -bench BenchmarkBroadcastReduce -benchtime 20x .
	$(GO) run ./cmd/collectivebench
	$(GO) run ./cmd/dispatchbench
	$(GO) run ./cmd/manychares

# bench/dispatch regenerates only BENCH_dispatch.json (generated bindings vs
# reflective dispatch, mem/TCP transports; see EXPERIMENTS.md §dispatch) and
# prints the go-bench ablation including the gob-fallback struct rows.
bench/dispatch:
	$(GO) test -run xxx -bench 'BenchmarkDispatch' -benchtime 2000x .
	$(GO) run ./cmd/dispatchbench

# bench/manychares regenerates BENCH_manychares.json: the overdecomposition
# sweep (placement × grain × GOMAXPROCS, up to 1M chares) of the
# work-stealing PE scheduler. See EXPERIMENTS.md §manychares for the
# protocol and acceptance bars.
bench/manychares:
	$(GO) run ./cmd/manychares

# collectives regenerates only BENCH_collectives.json (spanning-tree vs flat
# broadcast+reduce; see EXPERIMENTS.md §collectives for the protocol).
collectives:
	$(GO) run ./cmd/collectivebench

# profile runs a traced 2-process stencil3d job under charmrun and validates
# that the exported timeline is well-formed Chrome trace-event JSON.
profile:
	$(GO) build -o /tmp/charmgo-stencil3d ./examples/stencil3d
	$(GO) build -o /tmp/charmgo-charmrun ./cmd/charmrun
	$(GO) build -o /tmp/charmgo-tracecheck ./cmd/tracecheck
	/tmp/charmgo-charmrun -np 2 -pes 2 -baseport 42160 -trace /tmp/charmgo-stencil.json /tmp/charmgo-stencil3d
	/tmp/charmgo-tracecheck /tmp/charmgo-stencil.json

# introspect is the live-introspection smoke (DESIGN.md §3.6): launch the
# kvstore example across 3 processes with CCS sampling on, scrape node 0's
# /introspect while the job runs, schema-check the cluster snapshot
# (introspectcheck also does one `charmgo top -json`-equivalent fetch of the
# live trace window), validate that window with tracecheck, then let the job
# finish cleanly.
introspect:
	$(GO) build -o /tmp/charmgo-kvstore ./examples/kvstore
	$(GO) build -o /tmp/charmgo-charmrun ./cmd/charmrun
	$(GO) build -o /tmp/charmgo-tool ./cmd/charmgo
	$(GO) build -o /tmp/charmgo-introspectcheck ./cmd/introspectcheck
	$(GO) build -o /tmp/charmgo-tracecheck ./cmd/tracecheck
	/tmp/charmgo-charmrun -np 3 -pes 2 -baseport 42180 -ccs-addr 127.0.0.1:9390 \
		/tmp/charmgo-kvstore -seconds 15 -shards 24 & \
	CRPID=$$!; \
	sleep 4; \
	/tmp/charmgo-tool top -json 127.0.0.1:9390 > /tmp/charmgo-introspect.json && \
	/tmp/charmgo-introspectcheck -nodes 3 /tmp/charmgo-introspect.json && \
	/tmp/charmgo-introspectcheck -nodes 3 -trace-out /tmp/charmgo-introwindow.json -window 3s \
		http://127.0.0.1:9390/introspect && \
	/tmp/charmgo-tracecheck /tmp/charmgo-introwindow.json; \
	RC=$$?; wait $$CRPID || RC=1; exit $$RC
