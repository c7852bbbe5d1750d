GO ?= go

.PHONY: check tier1 race fuzz-smoke bench scale-smoke serve-smoke lint-panics lint-paths lint-sweeps lint-fmt loc

# The gates. Each CI job (.github/workflows/ci.yml) is one target here, and
# `make check` runs them all. tier1 is `go test ./...`, so a new test needs
# no registration; every other target adds only what tier1 cannot: a flag
# (-race, -fuzz, -v) or an environment (ASPP_SCALE=1).
check: lint-panics lint-paths lint-sweeps lint-fmt loc tier1 race fuzz-smoke scale-smoke serve-smoke

tier1:
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test ./...

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
	@bad=$$(grep -rnwE 'NewBatchScratch|BatchScratch|PropagateBatch|AttackLane|PropagateAttackDeltaBatch' \
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
# comment-only. ROADMAP items 2 and 13 read their internal/routing line
# targets off this; CI prints it so the trend is in the log.
loc:
	@count() { awk -v p="$$1" '{t++} !/^[[:space:]]*($$|\/\/)/{c++} END{printf "%-20s %5d lines %5d code\n", p, t, c}'; }; \
	src() { ls $$1/*.go | grep -v _test.go | xargs cat; }; \
	for p in internal/* cmd/*; do src $$p | count $$p; done; \
	count aspp.go < aspp.go; \
	{ for p in internal/* cmd/*; do src $$p; done; cat aspp.go; } | count total

# The concurrent sweep machinery and the serving pipeline under the race
# detector, with asppbench's run scheduler (experiments side by side over
# one shared graph, DESIGN.md §6) and asppserve -replay (the alarm feed read
# while shard workers publish to it, DESIGN.md §5g).
race:
	$(GO) test -race ./internal/parallel/ ./internal/routing/ ./internal/core/ ./internal/experiment/ ./internal/defense/ ./internal/detect/ ./internal/measure/ ./internal/serve/
	$(GO) test -race -run 'TestRunAll|TestRunConcurrent' ./cmd/asppbench/
	$(GO) test -race -run 'TestRunReplay' ./cmd/asppserve/

# 10 s of every fuzz target from its checked-in corpus (testdata/fuzz/).
# The bench-only lane loop's two fuzzers run only as seed tests in tier1.
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

# The detector's storage tests with -v: the job prints their per-prefix
# byte figures (DESIGN §5c). tier1 runs the same tests and the serving
# smoke, soak and RunLoad tests without the figures.
serve-smoke:
	$(GO) test -run='TestDetectorMemoryBytesTracksHeap|TestDetectorThousandMonitorsCost|TestDetectorPrefixIndexCost|TestPrefixKeyClasses|TestDetectorPrefixKeyTwinsHashApart|TestDetectorRouteTable' -count=1 -v ./internal/detect/

# The repository's one benchmark (BENCHMARK.json): end-to-end workloads
# plus the per-layer rows, written to bench/out/. See bench/README.md.
bench:
	bash bench/run.sh

# The internet80k tests, which skip unless ASPP_SCALE is set (DESIGN §5f):
# the sharded pair sweep's working set, the kernel against the reference
# engine and the stability checker, and the survey digests at 80k.
scale-smoke:
	ASPP_SCALE=1 $(GO) test -p 1 -run='^TestScale80k' -count=1 . ./cmd/asppbench/ ./internal/routing/
