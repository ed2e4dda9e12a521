# Developer entry points. CI (.github/workflows/ci.yml) runs the same
# commands; `make lint` is the local mirror of the lint gate.

GO ?= go

.PHONY: build test race lint fuzz-smoke bench-smoke bench-regress perfbench-smoke fault-smoke serve-smoke federate-smoke trace-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/obs/ ./internal/obs/session/ ./internal/obs/fedclient/ ./internal/report/ ./internal/memctrl/ ./internal/gpu/ ./internal/shard/ ./internal/tracestore/ ./internal/bus/ ./internal/fault/

# lint runs the in-repo gates that need no network. CI layers
# staticcheck and govulncheck on top (installed there with go install,
# which this container cannot do offline).
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/smores-lint ./...

fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzSparseRoundTrip -fuzztime 10s ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzDecodeGroupBurst -fuzztime 10s ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzMTARoundTrip -fuzztime 10s ./internal/mta/
	$(GO) test -run '^$$' -fuzz FuzzMTAColumns -fuzztime 10s ./internal/mta/
	$(GO) test -run '^$$' -fuzz FuzzEDCDetect -fuzztime 10s ./internal/edc/
	$(GO) test -run '^$$' -fuzz FuzzStoreRoundTrip -fuzztime 10s ./internal/tracestore/
	$(GO) test -run '^$$' -fuzz FuzzSchedulerIndex -fuzztime 10s ./internal/memctrl/
	$(GO) test -run '^$$' -fuzz FuzzProfileTally -fuzztime 10s ./internal/bus/
	$(GO) test -run '^$$' -fuzz FuzzDeltaStream -fuzztime 10s ./internal/obs/
	$(GO) test -run '^$$' -fuzz FuzzProfileStream -fuzztime 10s ./internal/obs/
	$(GO) test -run '^$$' -fuzz FuzzReader -fuzztime 10s ./internal/trace/
	$(GO) test -run '^$$' -fuzz FuzzProfileConservation -fuzztime 10s ./internal/bus/

bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x .

bench-regress:
	$(GO) run ./cmd/smores-bench -compare BENCH_baseline.json -tolerance 5%

# perfbench-smoke runs the four benchmark workloads for one second each
# and demands correct ops, zero failed ops, and the seed-1 untraced output
# digests recorded in perfbench/LEDGER.md: end-to-end bit-identity of the
# Table V sweep, the sharded LLC fleet, the exact-data profiled sweep
# (whose ops also reconcile the energy profile with the bus) and the
# per-app energies the served sessions' counter streams reconstruct.
# Needs jq.
PERFBENCH_DIGESTS = table5=a8377d97061de9f4a9bd18ea171d6808 sharded8_llc=9b9cda650ebe6c4f215690868606813b exact_profiled=f02177ad7114ff768015ca5fc09954f9 serve_sessions=88c2a6108bb39ec802af803d107efd9e

perfbench-smoke:
	@for pair in $(PERFBENCH_DIGESTS); do \
		w=$${pair%%=*}; want=$${pair#*=}; \
		out=$$(bash perfbench/run.sh --workload $$w --seed 1 --seconds 1 --trace 0) || exit 1; \
		echo "$$out"; \
		echo "$$out" | head -n 1 | jq -e --arg d $$want '.digest == $$d' >/dev/null || \
			{ echo "$$w: output digest is not $$want"; exit 1; }; \
		echo "$$out" | tail -n 1 | jq -e '.correct == true and .failed == 0' >/dev/null || \
			{ echo "$$w: incorrect or failed ops"; exit 1; }; \
	done

# fault-smoke runs a small Monte Carlo fault campaign and gates on the
# link-reliability promise: with EDC enabled, a 1e-4 error rate must
# produce zero silent corruptions. Writes fault-smoke.json for
# inspection / CI artifact upload.
fault-smoke:
	$(GO) run ./cmd/smores-fault -rates 1e-4 -models uniform,bursty -edc on \
		-apps 2 -accesses 2000 -gate-silent -json fault-smoke.json

# serve-smoke boots the telemetry service on an ephemeral port, submits
# sessions over real HTTP, asserts every NDJSON delta stream reconciles
# exactly with the session's final metrics and that /fleet/metrics
# conserves the per-session totals, then writes the roll-up JSON for
# inspection / CI artifact upload.
serve-smoke:
	$(GO) run ./cmd/smores-serve -smoke -smoke-sessions 3 -out fleet-rollup.json

# federate-smoke boots two in-process service instances (each under a
# tiny retention cap so the retired accumulator is on the scraped path),
# federates them through the scrape client, and asserts the merged
# /federation/metrics and /federation/profile documents are
# byte-identical to fetching both peers' fleet roll-ups and merging them
# in peer order.
federate-smoke:
	$(GO) run ./cmd/smores-serve -smoke -federate self -smoke-sessions 3 -out federation-rollup.json

# trace-smoke drives the columnar trace-store pipeline end to end:
# record a workload, pack it into a sharded store, column-scan it
# (sector only — the other columns must stay on disk), verify every
# checksum, and replay both the flat trace and the store, demanding
# identical simulation output. Writes store-stats.json for inspection /
# CI artifact upload.
trace-smoke:
	$(GO) run ./cmd/smores-trace -record bfs -n 2000 -out trace-smoke.smtr
	$(GO) run ./cmd/smores-trace -pack trace-smoke.smtr -store trace-smoke.store -shards 4 -name bfs-smoke
	$(GO) run ./cmd/smores-trace -info trace-smoke.store -stats-json store-stats.json
	$(GO) run ./cmd/smores-trace -scan trace-smoke.store -fields sector
	$(GO) run ./cmd/smores-trace -verify trace-smoke.store
	$(GO) run ./cmd/smores-trace -replay trace-smoke.smtr > trace-smoke-flat.txt
	$(GO) run ./cmd/smores-trace -replay trace-smoke.store > trace-smoke-store.txt
	cmp trace-smoke-flat.txt trace-smoke-store.txt
	cat trace-smoke-store.txt
