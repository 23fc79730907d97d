GO ?= go

.PHONY: build vet lint test race bench bench-json bench-smoke bench-guard bench-test bench-vet soak fuzz-smoke chaos crash-matrix repro-check size verify

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint = vet, gofmt over every tracked .go file (git ls-files, so build
# output such as .bench_build/ is never walked), plus staticcheck when it
# is installed (skipped gracefully otherwise, so lint never needs network
# access).
lint: vet
	@unformatted=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; \
	fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

test:
	$(GO) test ./...

# Race tier: the packages with concurrent cache paths (cache manager,
# singleflight, broker handlers), the lock-free measurement and
# exposition primitives — ./internal/obs/... includes the span recorder's
# concurrent ring — and the cluster's group-evaluation engine
# (./internal/bdms/...), whose snapshot-handoff eval pipeline races
# subscribe/unsubscribe against in-flight evaluations. Kept narrow so it
# stays fast enough to run on every change.
race:
	$(GO) test -race ./internal/core/... ./internal/broker/... ./internal/metrics/... ./internal/obs/... ./internal/httpx/... ./internal/bdms/...

bench:
	$(GO) test -bench=. -benchmem ./...

# Delivery-pipeline benchmarks as a committed JSON artifact, at -cpu 1
# like the eval rows; the results round trips (over HTTP and over the
# notification socket) run longer, being loopback exchanges. The comparators that used to run beside
# BenchmarkFanout are deleted; their numbers live in the note.
bench-json:
	{ $(GO) test -run=NONE -bench='BenchmarkFanout|BenchmarkObjectsInRange|BenchmarkWritePrepared|BenchmarkWriteMessage' \
		-benchmem -benchtime=200x -cpu 1 -count=3 ./internal/broker ./internal/wsock ./internal/core; \
	  $(GO) test -run=NONE -bench='^Benchmark(Results(Route|Socket)Hit|HandleCallback)$$' -benchmem -benchtime=5000x -cpu 1 -count=5 ./internal/broker; } \
		| $(GO) run ./cmd/benchjson -note "Fanout is the pooled-writer interest-keyed hub (1000 drained subscribers plus one stalled) with GC-owned sessions and events. Same hub with sessions and events drawn from sync.Pools (deleted; it cost three use-after-release bugs and moved no live metric): 44166ns/0allocs, p99 97454ns. Goroutine-per-session hub before the writer pool: 201824ns/57allocs, p99 595609ns. Original synchronous per-subscriber dispatch loop (BenchmarkFanoutLegacySync, deleted; drained subscribers only): 2420618ns/2000allocs, p99 4733616ns. objectsInRange pre-change: span=1 4513ns/1alloc, span=16 4963ns/5allocs, span=256 6647ns/9allocs. ResultsRouteHit is client.GetResults against an httptest broker serving one cached 700-byte object to each of 32 subscribers; before rows stayed bytes and spans left the allocator, same box: 47407ns/181allocs. ResultsSocketHit is the same with every subscriber Listening, so each retrieval is one frame each way on its notification socket, the push frames' decode included. Before the notification socket's frames stopped going through encoding/json (the HTTP fallback's decode shares that reader): RouteHit 12639B/133allocs, SocketHit 7280B/83allocs. Only those two rows' B/op and allocs/op were re-recorded then; their ns/op stayed as first recorded, because on a slower box the change ran faster than its parent (best of five, RouteHit 95153 -> 79517ns, SocketHit 81571 -> 69506ns). HandleCallback is the broker's webhook route on a 4-entry envelope with pushed rows, its results cached after the first round; with the envelope decoded by encoding/json: 14345B/89allocs. Before each span was its own context node (a node per span and per parent, the request ID's node and string, a traceparent string per push frame and per socket retrieval, a timer and a request buffer per socket retrieval, frame headers read through the heap): RouteHit 40392ns 12631B/115allocs, SocketHit 37899ns 6518B/47allocs, HandleCallback 36183ns 13897B/79allocs. On that re-record only the three rows' B/op and allocs/op changed: on a box where the parent ran slower than those rows were first recorded (best of five, parent -> change: RouteHit 65117 -> 65622ns, SocketHit 37745 -> 35693ns, HandleCallback 25051 -> 24072ns), their ns/op and every other row stayed as first recorded." \
		> BENCH_fanout.json
	$(GO) test -run=NONE -bench='BenchmarkIngestEval' -benchmem -benchtime=2000x -cpu 1 -count=3 ./internal/bdms \
		| $(GO) run ./cmd/benchjson -note "Grouped channel evaluation over the compiled engine: evals/rec equals signature groups G, not subscriptions S; geo/sigs=2000 is the live benchmark's eval_wide body and grid. Tree-walking evaluator before compilation (same cases, -cpu 1): geo/sigs=2000 1670000ns/op 9440allocs, subs=1000/sigs=10 110000ns/op 357allocs, subs=10000/sigs=100 280000ns/op 664allocs, subs=10000/sigs=1000 750000ns/op 4082allocs, batch 140000ns/op 333allocs. geo/sigs=2000 while evaluation encoded its rows, and indexKey its keys, with encoding/json: 7245B/op 126allocs. geo/sigs=2000 before the geo-grid index, when every publication scanned all 2000 groups: 102037ns/op 59allocs 5312B/op; its row was re-recorded alone with the index, on a slower box where the parent read 153612ns/op. Rows run a fixed 2000 iterations: a result log grows by one entry per matching ingest, so a time-based -benchtime made ns/op depend on how many iterations it picked. Before each evaluation group kept one result log (every member held its own copy of each result), at 2000x on the same box (best of six): geo/sigs=2000 9073ns/op 47allocs 4427B/op, subs=1000/sigs=10 43797ns/op 125allocs, subs=10000/sigs=100 87655ns/op 150allocs, subs=10000/sigs=1000 117358ns/op 42allocs, batch 89523ns/op 140allocs." \
		> BENCH_eval.json

# Full soak run: BenchmarkSoak stands up 10k then 100k simulated WebSocket
# sessions with Zipf-skewed interest and 10% churn and measures memory per
# session, dispatch latency percentiles and allocs/op over 2000 dispatch
# events; this regenerates the committed BENCH_soak.json baseline that
# bench-guard gates against.
soak:
	$(GO) test -run=NONE -bench='^BenchmarkSoak$$' -benchtime=2000x -cpu 1 ./internal/broker \
		| $(GO) run ./cmd/benchjson -note "Session-hub soak: pooled writers over the interest-keyed index; 1000 backend subs, zipf s=0.90, 10% churn, seed 1, one dispatch event per iteration (constants of internal/broker/soak_bench_test.go). rss-bytes/session is taken inside a test binary whose heap the b.N=1 probe has already used: reused spans are zeroed, hence resident, so it reads heap-bytes/session plus stacks and runtime overhead. The standalone cmd/badsoak (deleted), a fresh process per run, left never-written buffer pages untouched and read 1268 rss-bytes/session on the 10k row, with 8.192 allocs/op (go test reports the integer), p50 2241ns, p99 33456ns. With sessions and events drawn from sync.Pools (deleted; GC-owned since) the 10k run read 5.7 allocs/event." \
		> BENCH_soak.json

# CI smoke: compile and run every delivery-path benchmark once, so a broken
# benchmark is caught without paying for a full measurement run (-short:
# BenchmarkSoak at 10k sessions only).
bench-smoke:
	$(GO) test -short -run=NONE -bench=. -benchtime=1x ./internal/broker ./internal/wsock ./internal/core
	$(GO) test -run=NONE -bench='^BenchmarkNotifierBurst$$' -benchtime=1x ./internal/bdms

# The live-stack benchmark's own tests (bench/ is its own module, outside
# `go test ./...`): oracle, helpers and the one-second smoke runs.
bench-test:
	cd bench && $(GO) test -short ./...

# The benchmark is frozen (BENCHMARK.json `paths`) and is its own module,
# so tier-1 `go build ./...` never compiles it: vetting it here is what
# catches a root-module API change the benchmark can no longer build
# against.
bench-vet:
	cd bench && $(GO) vet ./...

# Regression guard over the committed baselines, every row at one proc
# like its baseline (-cpu 1), so it passes on any box: the fan-out
# benchmark and the results' whole hit round trip, over HTTP and over the
# notification socket (best of five runs each, damping runner noise), and
# the webhook route's envelope decode (allocations only), against
# BENCH_fanout.json, the
# 10k-session soak against BENCH_soak.json, two grouped-evaluation rows
# against BENCH_eval.json — all seven read from the one `go test -bench`
# stream on stdin. Every guarded metric is printed as
# a diff row and all failures are reported together. Latency tolerances
# are wide because single runs on shared runners are noisy — the gate
# exists to catch the order-of-magnitude regressions (e.g. a return to
# per-session writer goroutines), not scheduler jitter.
bench-guard:
	{ $(GO) test -run=NONE -bench='^BenchmarkFanout$$' -benchtime=200x -cpu 1 -count=5 ./internal/broker; \
	  $(GO) test -run=NONE -bench='^Benchmark(Results(Route|Socket)Hit|HandleCallback)$$' -benchmem -benchtime=5000x -cpu 1 -count=5 ./internal/broker; \
	  $(GO) test -run=NONE -bench='^BenchmarkSoak$$/^sessions=10000$$' -benchtime=2000x -cpu 1 ./internal/broker; \
	  $(GO) test -run=NONE -bench='^BenchmarkIngestEval$$/^(subs=10000|geo)$$/^sigs=(100|2000)$$' -benchmem -benchtime=2000x -cpu 1 -count=3 ./internal/bdms; } \
		| $(GO) run ./cmd/benchguard \
			-guard 'baseline=BENCH_fanout.json;bench=BenchmarkFanout;metrics=ns/op:0.20,p99-dispatch-ns:0.50,allocs/op:0.50' \
			-guard 'baseline=BENCH_fanout.json;bench=BenchmarkResultsRouteHit;metrics=allocs/op:0.10,ns/op:0.35' \
			-guard 'baseline=BENCH_fanout.json;bench=BenchmarkResultsSocketHit;metrics=allocs/op:0.10,ns/op:0.35' \
			-guard 'baseline=BENCH_fanout.json;bench=BenchmarkHandleCallback;metrics=allocs/op:0.10' \
			-guard 'baseline=BENCH_soak.json;bench=BenchmarkSoak/sessions=10000;metrics=p99-dispatch-ns:1.0,allocs/op:0.5,rss-bytes/session:0.35' \
			-guard 'baseline=BENCH_eval.json;bench=BenchmarkIngestEval/subs=10000/sigs=100;metrics=ns/op:0.35,evals/rec:0.01' \
			-guard 'baseline=BENCH_eval.json;bench=BenchmarkIngestEval/geo/sigs=2000;metrics=ns/op:0.35,allocs/op:0.10,evals/rec:0.01'

# Fuzz smoke: a short bounded run of each native fuzz target (resume-token
# and traceparent parsing, the JSON codec's writers and every document
# reader (FuzzWire) against encoding/json, parameter-signature canonicalization, WAL
# crash-tail recovery, cache-snapshot decoding, the compiled AQL engine
# against its reference interpreter) so CI exercises the corpora plus a
# few seconds of mutation without turning into a fuzzing farm.
fuzz-smoke:
	$(GO) test -run=NONE -fuzz='^FuzzCompiledEval$$' -fuzztime=10s ./internal/aql
	$(GO) test -run=NONE -fuzz='^FuzzParseResumeToken$$' -fuzztime=10s ./internal/broker
	$(GO) test -run=NONE -fuzz='^FuzzWire$$' -fuzztime=10s ./internal/wire
	$(GO) test -run=NONE -fuzz='^FuzzParseTraceparent$$' -fuzztime=10s ./internal/obs
	$(GO) test -run=NONE -fuzz='^FuzzParamSignature$$' -fuzztime=10s ./internal/bdms
	$(GO) test -run=NONE -fuzz='^FuzzWALRecord$$' -fuzztime=10s ./internal/bdms
	$(GO) test -run=NONE -fuzz='^FuzzCacheSnapshot$$' -fuzztime=10s ./internal/bdms

# Chaos tier: the fault-injection harness and every resilience path it
# drives — retries/breakers (httpx), client wiring, webhook redelivery and
# dead-callback reroute (bdms), the callback stream killed mid-envelope and
# redialled (bdms, broker), stale-serve (core, broker), broker-kill
# failover, rolling drain and resume (client, broker), BCS liveness and
# restart recovery (bcs), the kill-the-cluster simulation scenario, and
# the fabric scenarios — HRW rebalance-on-join with zero loss (client),
# peer lookup under a draining/cold/dead owner (broker), the multi-broker
# cooperative-caching sim (sim), and the durability drills — cluster
# kill -9 mid-batch with byte-identical replay (bdms) and broker restart
# under 1k resuming sessions with a warm cache handoff (broker).
# Runs race-enabled, twice and with a shuffled test order, because these
# tests assert exact deterministic counts: a flake here is a real ordering
# bug, and -shuffle=on surfaces inter-test order dependence that a fixed
# order would mask.
chaos:
	$(GO) test -race -count=2 -shuffle=on \
		./internal/faults/... ./internal/httpx/... ./internal/bdms/... \
		./internal/core/... ./internal/broker/... ./internal/bcs/... \
		./internal/client/... ./internal/sim/...

# Exhaustive crash matrix: replays the durability store from a crash at
# EVERY byte boundary of the WAL (the default test run samples ~16 cut
# points to stay fast). Each cut must recover to a clean prefix of the
# full history.
crash-matrix:
	CRASH_MATRIX=full $(GO) test -run='^TestStoreCrashMatrix$$' -v ./internal/bdms

# The paper's figures, pinned: every simulation sweep and the Fig. 7
# prototype rig are deterministic, so `badrepro -fig all` must reproduce
# the committed repro_output.txt digit for digit, its wall-clock
# `# done in` line aside (about three minutes on two cores).
repro-check:
	$(GO) run ./cmd/badrepro -fig all | diff -I '^# done in' repro_output.txt -

# The numbers every simplicity PR reports in CHANGES.md, counted one way:
# root-module (bench/ excluded) non-test and test lines, command-line flag
# definitions under cmd/ (every flag.<Type>( and flag.<Type>Var( call), and
# exported declarations per internal package as `go doc -all` lists them.
size:
	@echo "non-test lines $$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | xargs cat | wc -l)"
	@echo "test lines     $$(find . -name '*_test.go' ! -path './bench/*' | xargs cat | wc -l)"
	@echo "flags          $$(grep -rhoE '\bflag\.(Bool|Duration|Float64|Func|Int|Int64|String|Uint|Uint64)(Var)?\(' cmd --include='*.go' | wc -l)"
	@for p in $$($(GO) list ./internal/...); do \
		echo "exported $${p#gobad/internal/} $$($(GO) doc -all $$p | grep -cE '^(func|type) ')"; \
	done

# Everything CI runs: build, vet (the frozen benchmark module included),
# full test suite, then the race tier. The chaos tier is its own CI step
# (it re-runs several suites race-enabled with -count=2, which would double
# up here).
verify: build vet bench-vet test race
