GO ?= go

.PHONY: all build test single-cpu race bench bench-smoke benchmark-smoke vet repro ci ci-steps crash-matrix server-smoke chaos-smoke backup-smoke loc

all: build test

# What CI runs (.github/workflows/ci.yml): build, vet, tests, the tests
# again on one CPU, race suite, crash matrix, bench smoke, benchmark
# smoke, server smoke, chaos smoke, backup smoke — and then the check
# that none of it wrote a tracked file or left an untracked, un-ignored
# one behind: `git status --porcelain` must read the same after the
# steps as before them.
ci:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	git status --porcelain > "$$tmp/before" && \
	$(MAKE) ci-steps && \
	git status --porcelain > "$$tmp/after" && \
	if ! diff "$$tmp/before" "$$tmp/after"; then \
		echo "make ci changed the working tree (git status --porcelain: < before, > after)"; exit 1; \
	fi

ci-steps: build vet test single-cpu race crash-matrix bench-smoke benchmark-smoke server-smoke chaos-smoke backup-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The whole tree on one CPU: catches tests that pass only when goroutines
# are scheduled in parallel, and anything sized by GOMAXPROCS (the
# buffer pool's automatic shard count).
single-cpu:
	GOMAXPROCS=1 $(GO) test -count=1 ./...

# Concurrency suite: the whole tree under the race detector, including
# the reader/writer stress tests in internal/asr and internal/query.
race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Smoke-test the instrumented path end to end: one tiny asrbench
# experiment (EXPLAIN ANALYZE calibration) with a telemetry snapshot.
bench-smoke:
	$(GO) run ./cmd/asrbench -experiment explain-calib -metrics

# Smoke-test the repository's yardstick (BENCHMARK.json, benchmark/):
# all four workloads, untraced then traced, on scale-4 fixtures for one
# second each. It checks the harness and every answer; it measures
# nothing.
benchmark-smoke:
	$(GO) run ./benchmark -smoke -seconds 1

# Durability suite under the race detector: crash the page file and WAL
# at every admitted physical write (storage level) and across the
# managed-index mutation schedule (asr level), test the fault schedule
# the crashpoint is built on (internal/fault), and fuzz the WAL record
# codec and the B⁺-tree's in-place page search briefly. Deterministic
# seeds — failures reproduce exactly.
crash-matrix:
	$(GO) test -race -count=1 -run 'Crash|Recover|SaveOpen|OpenFrom|Torn|WAL' ./internal/storage/ ./internal/asr/
	$(GO) test -race -count=1 ./internal/fault/
	$(GO) test -run=FuzzWALRecordDecode -fuzz=FuzzWALRecordDecode -fuzztime=10s ./internal/storage/
	$(GO) test -run=FuzzPageSearch -fuzz=FuzzPageSearch -fuzztime=10s ./internal/btree/

# Service-layer gate under the race detector (docs/SERVICE.md): boot
# gomd in-process on ephemeral ports, burst 30 connections, deliver a
# real SIGTERM mid-traffic, and require byte-identical results, typed
# rejections only, a served /metrics page, and a clean drain. Also
# probes the admin observability plane (/debug/pprof, /traces,
# /slowlog, /readyz load counts), the trace-propagation contract, and
# vets that every server_*/trace_* metric in the source is documented;
# fuzzes the wire-frame codec briefly (mirroring the WAL codec fuzz)
# and replays the protocol saturation + drain tests.
server-smoke:
	$(GO) test -race -count=1 -run 'TestGomd' ./cmd/gomd/
	$(GO) test -race -count=1 -run 'TestSaturation|TestDrain|TestCancel|TestOverload' ./internal/server/
	$(GO) test -race -count=1 -run 'TestAdminPlane|TestSlowLog|TestTrailerOnError|TestServerGeneratesTrace|TestServerMetricsAreDocumented' ./internal/server/
	$(GO) test -run=FuzzFrameDecode -fuzz=FuzzFrameDecode -fuzztime=10s ./internal/server/wire/

# Chaos gate under the race detector (docs/ROBUSTNESS.md, "Network
# chaos"): the fixed-seed saturation suite (32 connections under
# continuous network + disk fault injection; every response
# byte-identical or typed, zero hangs, zero goroutine leaks), the
# server-protection suite, the fault-schedule, chaos and retry suites,
# then one randomized-seed saturation pass so new fault schedules are
# explored on every run — the seed is logged and reproduces a failure
# exactly.
chaos-smoke:
	$(GO) test -race -count=1 -run 'TestChaos|TestRequestDeadline|TestClientCancelBeats|TestIdleWatchdog|TestSlowReader' ./internal/server/
	$(GO) test -race -count=1 ./internal/fault/ ./internal/server/chaos/ ./internal/server/client/
	CHAOS_SEED=$$$$ $(GO) test -race -count=1 -short -run 'TestChaosSaturation' -v ./internal/server/

# Backup/PITR/scrub gate under the race detector (docs/ROBUSTNESS.md,
# "Backup, PITR, and scrubbing"): WAL segment archiving (torn-seal
# crash matrix, typed gap/corruption detection, retention), online
# fuzzy backup + restore to every committed LSN, crash-mid-restore
# rerun convergence, the scrubber racing live writers, the manifest
# fsync crash stages, the admin /backup + /healthz plane, the gomd and
# gomshell surfaces, and the end-to-end PITR gate: online backup under
# an 8-worker query load, planted corruption healed mid-stream, then
# restores to three LSNs verified against a dump-replay oracle.
backup-smoke:
	$(GO) test -race -count=1 -run 'TestArchive|TestBackup|TestRestore|TestScrub|TestSaveToCrash' ./internal/storage/ ./internal/asr/
	$(GO) test -race -count=1 -run 'TestPITREndToEnd' ./internal/asr/
	$(GO) test -race -count=1 -run 'TestAdminBackup|TestAdminHealthz' ./internal/server/
	$(GO) test -race -count=1 -run 'TestGomdDurableBackupAndScrub' ./cmd/gomd/
	$(GO) test -race -count=1 -run 'TestShellBackupRestore' ./cmd/gomshell/

vet:
	$(GO) vet ./internal/telemetry/
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l . lists:"; echo "$$unformatted"; exit 1; fi

# Non-test Go lines per package (wc -l over *.go minus *_test.go) and
# their total — the figures simplicity PRs report in CHANGES.md.
loc:
	@for d in $$($(GO) list -f '{{.Dir}}' ./...); do \
		printf '%6d %s\n' $$(ls $$d/*.go | grep -v _test.go | xargs cat | wc -l) .$${d#$(CURDIR)}; \
	done | awk '{ print; n += $$1 } END { printf "%6d total\n", n }'

# Regenerate every paper table/figure (EXPERIMENTS.md numbers).
repro:
	$(GO) run ./cmd/asrbench -all
