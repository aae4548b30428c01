# constcomp — build/test/experiment targets.

GO ?= go

.PHONY: all check build vet test race lint cover cover-check bench bench-compare chaos-smoke serve-smoke cli-smoke loadgen examples experiments fuzz fuzz-smoke clean

all: build vet test

# Tier-1 gate: everything CI requires green (see README).
check: build vet lint test race fuzz-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# constvet: the repository's own invariant suite (durability ordering,
# determinism, budget discipline, lock/deadline/error dataflow over the
# whole-repo call graph). Exceptions are annotated in-diff with
# //constvet:allow; see DESIGN.md. The build step first warms the shared
# build cache so constvet's `go list -export` load reuses compiled
# export data instead of recompiling every package. LINTFLAGS passes
# driver flags through, e.g. `make lint LINTFLAGS='-json'` or
# `make lint LINTFLAGS='-run lockhold,deadlineflow -v'`.
LINTFLAGS ?=
lint:
	$(GO) build ./...
	$(GO) run ./cmd/constvet $(LINTFLAGS) ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./...

# Coverage floors, set about one point under the figure measured when
# each gate was introduced to absorb run-to-run noise: internal/obs
# 93.3% -> 92.0, internal/store 80.2% -> 79.0, internal/analysis
# 87.2% -> 86.0, internal/delta 95.9% -> 94.0.
cover-check:
	@set -e; \
	check() { \
		pct=$$($(GO) test -cover $$1 | tee /dev/stderr | grep -o 'coverage: [0-9.]*%' | grep -o '[0-9.]*'); \
		ok=$$(awk -v p="$$pct" -v f="$$2" 'BEGIN { print (p+0 >= f+0) ? 1 : 0 }'); \
		if [ "$$ok" != 1 ]; then echo "cover-check: $$1 coverage $$pct% below floor $$2%"; exit 1; fi; \
	}; \
	check ./internal/obs 92.0; \
	check ./internal/store 79.0; \
	check ./internal/analysis 86.0; \
	check ./internal/delta 94.0; \
	echo "cover-check: floors held"

# Run the kernel/experiment benchmarks and record them as JSON. BENCH.json
# is the single committed baseline (it replaced the old BENCH_relation.json
# / BENCH_new.json split).
bench:
	$(GO) test -bench=. -benchmem . | tee /dev/stderr | $(GO) run ./cmd/benchjson > BENCH.json

# Regression gate: re-run the kernel, pipeline, per-delta, end-to-end
# serving, maintained-chase removal, chase and imposition, and store
# encoder benchmarks and fail if any BenchmarkRel*, BenchmarkPipeline*,
# BenchmarkViewPublish*, BenchmarkE5InsertDelta*, BenchmarkE5InsertExact*,
# BenchmarkA1ChaseImpl*, BenchmarkA5ImposeStrategy*,
# BenchmarkApplyDeltaVsFull*, BenchmarkNetServe*,
# BenchmarkMaintainedRemove*, BenchmarkStoreSnapshot*,
# BenchmarkStoreJournalAppend or BenchmarkStoreCheckpoint/fs=mem grew
# >30% in ns/op, or in allocs/op where the baseline records them,
# against the committed baseline (StoreCheckpoint/fs=dir runs too but
# is fsync-bound and not gated). A gated row that reads below half its
# baseline is reported STALE, without failing the gate. -count=3 runs each benchmark three times and the
# comparison keeps the fastest, de-noising shared-machine scheduling and
# GC hiccups. The fresh run lands in BENCH.fresh.json (gitignored; CI
# uploads it as an artifact). A missing baseline makes the comparison
# advisory-only (exit 0).
bench-compare:
	$(GO) test -bench='^Benchmark(Rel|Pipeline|ViewPublish|E5InsertDelta|E5InsertExact|A1ChaseImpl|A5ImposeStrategy|ApplyDeltaVsFull|NetServe|MaintainedRemove|StoreSnapshot|StoreJournalAppend|StoreCheckpoint)' -benchmem -count=3 . | tee /dev/stderr | $(GO) run ./cmd/benchjson > BENCH.fresh.json
	$(GO) run ./cmd/benchjson -compare BENCH.json -filter '^Benchmark(Rel|Pipeline|ViewPublish|E5InsertDelta|E5InsertExact|A1ChaseImpl|A5ImposeStrategy|ApplyDeltaVsFull|NetServe|MaintainedRemove|StoreSnapshot|StoreJournalAppend|StoreCheckpoint/fs=mem$$)' BENCH.fresh.json

# Chaos smoke: six canonical per-kind fault schedules plus a fixed-seed
# sweep through the self-healing pipeline (internal/chaos). Exits
# non-zero on any acked-op loss, oracle divergence, or if the sweep
# fails to drive at least one resurrection and one shed. Virtual time
# keeps it to a few seconds wall-clock.
chaos-smoke:
	$(GO) run ./cmd/chaos -seeds 40 -ops 40

# Serve smoke: boot viewsrv on a throwaway journal with one injected
# fsync fault, then drive a CI-sized multi-tenant zipfian burst of mixed
# ops (inserts, Thm-8 deletes, Thm-9 replacements) through the binary
# submit path with cmd/loadgen. Fails on any lost ack, any 5xx on the
# fair-share path, or if the fault failed to drive a resurrection. The
# client-observed latency report lands in SERVE.report.json (gitignored;
# CI uploads it as an artifact).
serve-smoke:
	@set -e; \
	tmp=$$(mktemp -d); \
	trap 'kill -TERM $$pid 2>/dev/null || true; rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/viewsrv" ./cmd/viewsrv; \
	$(GO) build -o "$$tmp/loadgen" ./cmd/loadgen; \
	"$$tmp/viewsrv" -journal "$$tmp/journal" -addr 127.0.0.1:0 -portfile "$$tmp/port" \
		-failsync 5 -tenants "good=4,hog=1" & pid=$$!; \
	i=0; while [ ! -s "$$tmp/port" ] && [ $$i -lt 100 ]; do sleep 0.1; i=$$((i+1)); done; \
	[ -s "$$tmp/port" ] || { echo "serve-smoke: viewsrv did not start"; exit 1; }; \
	"$$tmp/loadgen" -addr "$$(cat "$$tmp/port")" -view ed -clients 6 -ops 1200 -batch 8 \
		-tenants good,hog -report SERVE.report.json -expect-resurrection; \
	kill -TERM $$pid; wait $$pid || true; \
	echo "serve-smoke: ok"

# CLI smoke: run README's group-commit walkthrough (the sh block under
# "### Group commit") as written, with a built viewupd and a throwaway
# journal directory in place of /tmp/edm, then resume that directory
# with -recover and a `view` script, failing unless both walkthrough
# inserts (ann toys, zed tools) survived. A flag the README documents
# but viewupd no longer has fails the first step.
cli-smoke:
	@set -e; \
	tmp=$$(mktemp -d); \
	trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/viewupd" ./cmd/viewupd; \
	awk '/^### Group commit/ { sec = 1 } sec && /^```sh/ { code = 1; next } code && /^```/ { exit } code' README.md \
		| sed -e "s|go run ./cmd/viewupd|$$tmp/viewupd|" -e "s|/tmp/edm|$$tmp/journal|" > "$$tmp/walkthrough.sh"; \
	grep -q -e '-batch 32' "$$tmp/walkthrough.sh" || { echo "cli-smoke: README walkthrough not found"; exit 1; }; \
	bash -e "$$tmp/walkthrough.sh"; \
	echo view > "$$tmp/view.txt"; \
	"$$tmp/viewupd" -schema testdata/edm.schema -view "E D" -complement "D M" \
		-journal "$$tmp/journal" -recover -script "$$tmp/view.txt" | tee "$$tmp/recovered"; \
	grep -Eq '^ann +toys' "$$tmp/recovered" && grep -Eq '^zed +tools' "$$tmp/recovered" \
		|| { echo "cli-smoke: an acknowledged walkthrough update did not survive -recover"; exit 1; }; \
	echo "cli-smoke: ok"

# Interactive-scale load run against a self-hosted server, fault-free:
# prints the per-tenant latency table and verifies the final view.
loadgen:
	@set -e; \
	tmp=$$(mktemp -d); \
	trap 'kill -TERM $$pid 2>/dev/null || true; rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/viewsrv" ./cmd/viewsrv; \
	$(GO) build -o "$$tmp/loadgen" ./cmd/loadgen; \
	"$$tmp/viewsrv" -journal "$$tmp/journal" -addr 127.0.0.1:0 -portfile "$$tmp/port" \
		-tenants "good=4,hog=1" & pid=$$!; \
	i=0; while [ ! -s "$$tmp/port" ] && [ $$i -lt 100 ]; do sleep 0.1; i=$$((i+1)); done; \
	[ -s "$$tmp/port" ] || { echo "loadgen: viewsrv did not start"; exit 1; }; \
	"$$tmp/loadgen" -addr "$$(cat "$$tmp/port")" -view ed -clients 8 -ops 8000 -batch 16 \
		-tenants good,hog; \
	kill -TERM $$pid; wait $$pid || true

# Run every example binary (smoke test).
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/employee
	$(GO) run ./examples/registrar
	$(GO) run ./examples/succinct
	$(GO) run ./examples/catalog

# Regenerate all experiment tables (EXPERIMENTS.md records a full run).
experiments:
	$(GO) run ./cmd/experiments

# CI-sized sweep.
experiments-quick:
	$(GO) run ./cmd/experiments -quick

# Quick fuzz pass over every decoder that reads disk or network bytes:
# the dependency and dependency-set parsers, the journal and snapshot
# decoders, and the netserve op-frame (server-side) and
# result-frame (client-side) readers. Malformed input must never panic.
# FuzzCloneCOW also drives the relation kernel's copy-on-write storage
# through Insert/Delete/Clone sequences, and FuzzKeyTable its KeyTable
# and TupleIndex through put/get/delete and add/remove/lookup sequences,
# against map oracles. FuzzMaintained drives the maintained chase
# fixpoint through AddRow/RemoveRow streams against a from-scratch
# chase of the live rows. Every
# target uses -run '^$$' so no unit tests are re-run alongside the
# fuzzing.
fuzz-smoke:
	$(GO) test -fuzz='^FuzzParse$$' -fuzztime=5s -run '^$$' ./internal/dep
	$(GO) test -fuzz='^FuzzParseSet$$' -fuzztime=5s -run '^$$' ./internal/dep
	$(GO) test -fuzz='^FuzzJournal$$' -fuzztime=5s -run '^$$' ./internal/store
	$(GO) test -fuzz='^FuzzSnapshot$$' -fuzztime=5s -run '^$$' ./internal/store
	$(GO) test -fuzz='^FuzzOpFrame$$' -fuzztime=5s -run '^$$' ./internal/netserve
	$(GO) test -fuzz='^FuzzResultFrame$$' -fuzztime=5s -run '^$$' ./internal/netserve
	$(GO) test -fuzz='^FuzzCloneCOW$$' -fuzztime=5s -run '^$$' ./internal/relation
	$(GO) test -fuzz='^FuzzKeyTable$$' -fuzztime=5s -run '^$$' ./internal/relation
	$(GO) test -fuzz='^FuzzMaintained$$' -fuzztime=5s -run '^$$' ./internal/chase

fuzz:
	$(GO) test -fuzz='^FuzzParse$$' -fuzztime=30s -run '^$$' ./internal/dep
	$(GO) test -fuzz='^FuzzParseSet$$' -fuzztime=30s -run '^$$' ./internal/dep
	$(GO) test -fuzz='^FuzzJournal$$' -fuzztime=30s -run '^$$' ./internal/store
	$(GO) test -fuzz='^FuzzSnapshot$$' -fuzztime=30s -run '^$$' ./internal/store
	$(GO) test -fuzz='^FuzzOpFrame$$' -fuzztime=30s -run '^$$' ./internal/netserve
	$(GO) test -fuzz='^FuzzResultFrame$$' -fuzztime=30s -run '^$$' ./internal/netserve
	$(GO) test -fuzz='^FuzzCloneCOW$$' -fuzztime=30s -run '^$$' ./internal/relation
	$(GO) test -fuzz='^FuzzKeyTable$$' -fuzztime=30s -run '^$$' ./internal/relation
	$(GO) test -fuzz='^FuzzMaintained$$' -fuzztime=30s -run '^$$' ./internal/chase

clean:
	$(GO) clean ./...
