GO ?= go

.PHONY: check tier1 build test race fuzz-smoke bench scale-smoke serve-smoke lint-panics lint-paths lint-sweeps lint-fmt loc

# Everything CI gates on. CI runs the lints, tier1 and the two smokes as
# jobs of their own; locally `make check` is all of them.
check: lint-panics lint-paths lint-sweeps lint-fmt tier1 scale-smoke serve-smoke

# The cone-accounting differential, the λ-shift property, the delta-mirror
# test, the vantage differentials, the detection sweep's column differentials
# and detect's differentials and zero-alloc pins re-run explicitly so a leg
# counted over the wrong cone, a baseline shifted wrongly, a delta leg
# repaired against rows its baseline slot no longer holds, a monitor row read
# off a scan that skipped it, a column that stopped matching its one-column
# run, a second statement of the Fig. 4 rule, a Fold that disagrees with
# the frozen reference at some window (TestPrefixPassDifferential) or skips
# a trigger on the flags at the last cut instead of its own
# (TestFoldOwnCutDifferential), a returning allocation or a probe index that
# loses an id across a delete or a doubling (TestIndexDifferential, behind
# every interned id in detect and the path arena) names itself in the CI log
# instead of hiding inside the package sweep. So do the path arena's
# one-round lifetime tests: a Reset that keeps last round's segments
# (TestPathArenaResetDropsSegments, TestResetInvalidationSemantics, beside
# the warmed loop's TestPathsIntoZeroAlloc) or an evaluation scratch that
# grows with every attack it reads (TestEvalScratchArenaBounded). So do the
# fold's exact work pins in cmd/asppbench: Fig. 13's detection pairs (TestFig13IsOneSweep) and
# compare's and the random column's (TestDetectionFoldPins), which move when
# Fold's trigger skip drops a trigger it must fold or folds one it may
# skip. The topology I/O
# differentials re-run the same way: a build that depends on link order, a
# repeat or conflict judged wrongly, a loader that names the wrong line, or
# internet80k's digest or serial-2 bytes moving. TestExportsHaveCallers re-runs
# so that an exported name only tests use names itself too. So do the engine
# differentials that draw per-neighbour λ and withheld (λ 0) sessions through
# the full kernel, the delta engine and the reference oracle
# (TestEnginesAgree*, TestDeltaEngineDifferential), and TestLambdaBounds: a
# λ or KeepPrepend that would wrap a route's int16 Prep is an error.
tier1:
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test ./...
	$(GO) test -race ./internal/parallel/ ./internal/routing/
	$(GO) test -run='TestDetectionVisitorMatchesRetained|TestDetectionColumnsShareOneDraw' -count=1 ./internal/experiment/
	$(GO) test -run=TestConeAccounting -count=1 ./internal/core/
	$(GO) test -run=TestExportsHaveCallers -count=1 .
	$(GO) test -run='TestLambdaShiftProperty|TestDeltaMirrorFollowsSlotVersion' -count=1 ./internal/routing/
	$(GO) test -run='TestEnginesAgree|TestDeltaEngineDifferential|TestLambdaBounds' -count=1 ./internal/routing/
	$(GO) test -run=TestVantage -count=1 ./internal/routing/
	$(GO) test -run='Match(es)?FullTables' -count=1 ./internal/measure/ ./internal/collector/ ./internal/relinfer/
	$(GO) test -run 'Differential|ZeroAlloc' -count=1 ./internal/detect/ ./internal/probe/
	$(GO) test -run 'TestPathArenaResetDropsSegments|TestResetInvalidationSemantics|TestPathsIntoZeroAlloc' -count=1 ./internal/routing/
	$(GO) test -run TestEvalScratchArenaBounded -count=1 ./internal/detect/
	$(GO) test -run='TestFig13IsOneSweep|TestDetectionFoldPins' -count=1 ./cmd/asppbench/
	$(GO) test -run='TestBuildIndependentOfLinkInsertionOrder|TestBuilderAddContracts|TestReadSerial2InPlaceParsing|TestInternet80kDigest|TestGenerateMatchesParent' -count=1 ./internal/topology/
	$(GO) test -run='^$$' -fuzz=FuzzPathCodec -fuzztime=10s ./internal/bgp/

# Sweep workers must return errors, never panic (DESIGN.md §6 "Error
# contract"): non-test code in the gated packages may not call panic().
lint-panics:
	@bad=$$(grep -rn 'panic(' \
		internal/measure internal/relinfer internal/experiment internal/detect internal/defense \
		--include='*.go' --exclude='*_test.go' || true); \
	if [ -n "$$bad" ]; then \
		echo "panic() calls in gated non-test code (return an error instead):"; \
		echo "$$bad"; exit 1; \
	fi

# The detection/measurement pipeline is arena-backed (DESIGN.md §5c): hot
# paths pass routing.PathSpan views, not materialized bgp.Path slices.
# Flag fresh path allocations sneaking back into the gated non-test code,
# and a per-route view type coming back to detect: the Fig. 4 rule reads
# PathArena.SegBody off the span row.
lint-paths:
	@bad=$$(grep -rn -e 'make(bgp\.Path' -e 'append(path' \
		internal/detect internal/measure internal/relinfer \
		--include='*.go' --exclude='*_test.go' || true); \
	if [ -n "$$bad" ]; then \
		echo "path allocations in arena-backed hot paths (use routing.PathArena spans; see DESIGN.md 5c):"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rn 'spanRoute' internal/detect --include='*.go' --exclude='*_test.go' || true); \
	if [ -n "$$bad" ]; then \
		echo "spanRoute is back in internal/detect (detectRow reads the row; see DESIGN.md 5c):"; \
		echo "$$bad"; exit 1; \
	fi

# Fig. 13 is one sweep (DESIGN.md 5f): its columns are comparable because
# they read one attack draw, which holds only while cmd/asppbench asks for
# detection in one place. Every leg runs on the scalar kernels (DESIGN.md
# 5d): the lane API in internal/routing/batch.go is bench's alone.
lint-sweeps:
	@n=$$(ls cmd/asppbench/*.go | grep -v _test.go | xargs grep -o 'RunDetectionCtx' | wc -l); \
	if [ "$$n" -gt 1 ]; then \
		echo "cmd/asppbench mentions RunDetectionCtx $$n times (one memoized sweep; add a column to it):"; \
		grep -n 'RunDetectionCtx' cmd/asppbench/*.go | grep -v _test.go; exit 1; \
	fi
	@bad=$$(grep -rnwE 'NewBatchScratch|BatchScratch|PropagateBatch|AttackLane|PropagateAttackDeltaBatch|DeltaBatchRunner' \
		--include='*.go' --exclude='*_test.go' . | grep -v -e '^\./internal/routing/' -e '^\./bench/' -e '^\./\.bench_build/' || true); \
	if [ -n "$$bad" ]; then \
		echo "a lane engine name outside internal/routing (legs run on the scalar kernels; see DESIGN.md 5d):"; \
		echo "$$bad"; exit 1; \
	fi

# Every Go file is gofmt-clean (build outputs under bench/out and
# .bench_build are not source).
lint-fmt:
	@bad=$$(gofmt -l . | grep -v -e '^bench/out/' -e '^\.bench_build/' || true); \
	if [ -n "$$bad" ]; then \
		echo "gofmt -l reports unformatted files (run gofmt -w):"; \
		echo "$$bad"; exit 1; \
	fi

# Non-test Go lines of every internal/ and cmd/ package and of aspp.go,
# then their sum: total lines, and lines that are neither blank nor
# comment-only. ROADMAP item 2 reads its targets off this (routing + core +
# experiment net -1,500); CI prints it so the trend is in the log.
loc:
	@count() { awk -v p="$$1" '{t++} !/^[[:space:]]*($$|\/\/)/{c++} END{printf "%-20s %5d lines %5d code\n", p, t, c}'; }; \
	src() { ls $$1/*.go | grep -v _test.go | xargs cat; }; \
	for p in internal/* cmd/*; do src $$p | count $$p; done; \
	count aspp.go < aspp.go; \
	{ for p in internal/* cmd/*; do src $$p; done; cat aspp.go; } | count total

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The asppbench run is the one place several experiments read the shared
# graph at once (DESIGN.md §6, "Run scheduler"); asppserve -replay reads the
# alarm feed while the shard workers publish to it (DESIGN.md §5g).
race:
	$(GO) test -race ./internal/parallel/ ./internal/routing/ ./internal/core/ ./internal/experiment/ ./internal/defense/ ./internal/detect/ ./internal/measure/ ./internal/serve/
	$(GO) test -race -run 'TestRunAll|TestRunConcurrent' ./cmd/asppbench/
	$(GO) test -race -run 'TestRunReplay' ./cmd/asppserve/

fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzPathCodec -fuzztime=10s ./internal/bgp/
	$(GO) test -run='^$$' -fuzz=FuzzStreamDecoder -fuzztime=10s ./internal/bgp/
	$(GO) test -run='^$$' -fuzz=FuzzDetect -fuzztime=10s ./internal/detect/
	$(GO) test -run='^$$' -fuzz=FuzzPrefixKeys -fuzztime=10s ./internal/detect/
	$(GO) test -run='^$$' -fuzz=FuzzSerial2 -fuzztime=10s ./internal/topology/
	$(GO) test -run='^$$' -fuzz=FuzzForgedAttack -fuzztime=10s ./internal/routing/
	$(GO) test -run='^$$' -fuzz=FuzzSiblingPropagate -fuzztime=10s ./internal/routing/
	$(GO) test -run='^$$' -fuzz=FuzzCautious -fuzztime=10s ./internal/routing/
	$(GO) test -run='^$$' -fuzz=FuzzDeltaAttack -fuzztime=10s ./internal/routing/

# Serving-path smoke (DESIGN §5g): a short self-test replay through the
# sharded pipeline at the default ring depth must lose nothing under the
# block policy, raise alarms, and (without -race) sustain a conservative
# throughput floor. The soak variant re-runs the replay until the memory
# gauges prove a plateau. RunLoad at 1, 2 and 3 shards must raise exactly
# one serial detector's alarms over the same cyclic replay, one that stops
# part way through the corpus. The detector's storage tests run by name: 200k
# growth prefixes may grow the heap by at most 32 B each, MemoryBytes
# (what /metrics reports) must stay within 20 % of that heap, 100k growth
# prefixes at 1,000 monitors by at most 32 B each (prefixes share rows), the
# prefix index's key slabs and probe table may cost at most 22 B a prefix at
# any size from 1k to 300k, every class of prefix key (IPv4 words, IPv6
# and ::ffff: twins in the overflow slab) must agree slot for slot with a
# map through two index doublings, IPv6 keys with address words (a, b) and
# (b^c, a^c) must hash apart, one key cycled through 10k routes must leave
# the route table bounded, one key through 200k transit chains the segment
# table too, a route of 65,536 origin copies must be stored once and read
# back whole, and the churn corpus replayed ten times must neither sweep nor
# store a route again (DESIGN §5c).
serve-smoke:
	$(GO) test -run='TestServeSmoke|TestServeSoakMemoryPlateau|TestRunLoadMatchesSerialDetector' -count=1 ./internal/serve/
	$(GO) test -run='TestDetectorMemoryBytesTracksHeap|TestDetectorThousandMonitorsCost|TestDetectorPrefixIndexCost|TestPrefixKeyClasses|TestDetectorPrefixKeyTwinsHashApart|TestDetectorRouteTable' -count=1 -v ./internal/detect/

# The repository's one benchmark (BENCHMARK.json): end-to-end workloads
# plus the per-layer rows, written to bench/out/. See bench/README.md.
bench:
	bash bench/run.sh

# Internet-scale smoke (DESIGN §5f): a reduced tier-1 pair sweep over the
# canonical internet80k topology through the sharded path, where a shard
# holds one baseline. The test fails if the recorded cache gauge exceeds one
# internet80k baseline's bytes, so a working-set regression gates CI. The
# sibling test checks the 80k answers themselves: the kernel on fig11's
# sibling graph against the reference engine, row for row. The
# susceptibility test is a count gate: the default tier matrix simulates
# the 108 legs it prints, at most 108 baselines, one baseline a shard, and
# allocates nothing its gauges do not report. The cone test checks the pair
# sweep's answers: 110 legs counted over the attacker's cone against an O(n)
# recount over the full kernel, and those legs plus 16 tier-1-on-tier-1 ones
# on the delta engine against the full kernel, row for row. The λ-sweep test pins one propagation per
# victim and shard, at two and eight workers. The vantage test holds what the survey's monitors read
# off a restricted propagation to a whole-graph one, and the digest test
# holds fig5 and fig6 on internet80k to the bytes the whole-graph survey
# printed, and mitigation to the bytes the reference engine printed. The
# kernel-stability test holds 16 baselines and 20 full-kernel legs on
# internet80k to the stability checker, with leaf origins, leaf attackers,
# leaf forgers and leaf cautious deployers: the rows phase 3's leaf loop
# settles, which no other 80k check picks out.
scale-smoke:
	ASPP_SCALE=1 $(GO) test -run='TestScale80kPairSweepWithinBudget|TestScale80kSiblingKernelMatchesReference|TestScale80kSusceptibilityWork|TestScale80kConeCountsMatchFullKernel|TestScale80kLambdaSweepPropagatesVictimOnce|TestScale80kVantageRowsMatchFullKernel' -count=1 .
	ASPP_SCALE=1 $(GO) test -run=TestScale80kSurveyDigest -count=1 ./cmd/asppbench/
	ASPP_SCALE=1 $(GO) test -run=TestScale80kKernelStable -count=1 ./internal/routing/
