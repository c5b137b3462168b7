# Convenience targets for the reproduction.

PYTHON ?= python

.PHONY: install calibrate calibrate-check test test-fast fuzz-properties test-faults test-online test-live test-serve test-durable test-scale test-fleet test-memory serve-smoke serve-smoke-resume trace-check trace-check-fleet lint ci bench bench-mqo bench-faults bench-online bench-serve bench-scale bench-gate experiments check examples all

install:
	pip install -e .

test:
	$(PYTHON) -m pytest tests/

# Rewrite src/repro/data/tpch_calibration.json — each calibrated TPC-H
# instance's row counts, row widths and 22 work estimates — from generated
# rows and the test-side mini engine.  To calibrate another (scale, seed),
# add it to CALIBRATED in tests/tpch_calibration.py first.
calibrate:
	PYTHONPATH=src $(PYTHON) -m tests.tpch_calibration

# Fail if the committed calibration table differs from a regeneration.
calibrate-check:
	PYTHONPATH=src $(PYTHON) -m tests.tpch_calibration --check

# Everything except the long-running property/integration tests.
test-fast:
	PYTHONPATH=src $(PYTHON) -m pytest tests/ -q -m "not slow"

# Every Hypothesis property file under the randomized `fuzz` profile of
# tests/conftest.py: fresh seeds, 10x each property's own example budget,
# counter-examples printed as ready-to-paste @example decorators.  Tier-1
# itself is derandomized; this is where new counter-examples come from.
# Takes tens of minutes; not part of `make ci`.
fuzz-properties:
	HYPOTHESIS_PROFILE=fuzz PYTHONPATH=src $(PYTHON) -m pytest -q \
		$$(grep -l "^from hypothesis import" tests/test_*.py)

test-faults:
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_faults.py tests/test_faults_properties.py tests/test_latency_accounting.py -q

# Batch MQO (`WorkloadScheduler.schedule`) is a one-window online run, so
# its tests and pins run here too, beside the per-shard decision-log pins
# of short e2e-shaped sweeps.
test-online:
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_mqo_online.py tests/test_mqo_online_properties.py \
		tests/test_mqo_scheduling.py tests/test_system_mqo_integration.py tests/test_mqo_batch_pins.py \
		tests/test_mqo_window_chain_pins.py -q

# The live-telemetry stack: streaming aggregators, SLO monitor, profiler,
# bench gate plumbing.
test-live:
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_obs_live.py tests/test_obs_slo.py tests/test_obs_profile.py tests/test_bench_gate.py -q

# The wall-clock serving runtime: Clock seam, asyncio HTTP service,
# clock-equivalence property.
test-serve:
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_sim_clocks.py tests/test_serve.py tests/test_clock_equivalence.py -q

# The durable layer: journal framing/torn-write fuzzing, crash-injection
# equivalence (including the Hypothesis property sweep), golden journal.
test-durable:
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_durable_journal.py tests/test_durable_resume.py tests/test_durable_properties.py -q

# The scale arc: incremental conflict groups and the EXT5 sharded sweep,
# including the shipped-selection and cache-cap differentials (long
# configs stay behind `slow`).
test-scale:
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_mqo_conflict_incremental.py tests/test_mqo_scale.py -q -m "not slow"

# The fleet telemetry stack: shard traces returned in shard results, the
# collector merge, cross-shard checker rules, the registry-is-a-fold
# property, and the /metrics content negotiation (long configs stay
# behind `slow`).
test-fleet:
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_obs_fleet.py tests/test_obs_fleet_fold.py tests/test_serve_metrics_formats.py -q -m "not slow"

# What a sim process holds: no libcrypto and no engine import, the
# builtin-SHA-256 seed derivation (and its fallback), the stream's bytes
# per query, and the GA draws against random.Random.  Plus the import
# pins: the sim and serve entries load exactly their module lists, and
# the CLI imports a subcommand only when it runs.
test-memory:
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_memory_footprint.py \
		tests/test_public_api.py::TestImportGraph -q

# End-to-end HTTP pass over every route; asserts checker-clean trace and
# SimClock replay equivalence.
serve-smoke:
	PYTHONPATH=src $(PYTHON) -m repro serve-smoke

# Kill a journaled HTTP service mid-flight, resume from its journal, and
# prove the merged run is checker-clean and replay/recompute bit-equal.
serve-smoke-resume:
	PYTHONPATH=src $(PYTHON) -m repro serve-smoke --kill-resume

# Audit the three DES trace scenarios (the fig4 golden walkthrough, the
# Poisson stream and its fault-injected twin) with the trace invariant
# checker; non-zero on any violation.
trace-check:
	PYTHONPATH=src $(PYTHON) -m repro trace fig4 --check >/dev/null
	PYTHONPATH=src $(PYTHON) -m repro trace stream --check >/dev/null
	PYTHONPATH=src $(PYTHON) -m repro trace faults --check >/dev/null
	@echo "trace-check: fig4, stream and faults scenarios clean"

# Merge the traces a reduced EXT5 steady sweep's shards return and run
# the cross-shard checker rules over the merged trace (non-zero on any
# violation).
trace-check-fleet:
	PYTHONPATH=src $(PYTHON) -m repro scale --trace --fleet-metrics --schedule steady --queries 2000 >/dev/null
	@echo "trace-check-fleet: merged EXT5 steady trace clean"

# ruff where it is installed; otherwise the stdlib-only static check
# (unused imports and locals, undefined names, stale ROADMAP citations
# in src/).
lint:
	@if $(PYTHON) -m ruff --version >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check src/ tests/ benchmarks/; \
	else \
		PYTHONPATH=src $(PYTHON) -m pytest -q tests/test_code_budget.py; \
	fi

# Self-contained: sets PYTHONPATH itself, unlike the bare `test` target.
# Runs the suite once, then the memory gates by name so a footprint
# regression reads as one; the other test-* subsets are for developers.
ci: lint calibrate-check
	PYTHONPATH=src $(PYTHON) -m pytest tests/ -q
	$(MAKE) test-memory
	$(MAKE) trace-check
	$(MAKE) trace-check-fleet
	$(MAKE) serve-smoke
	$(MAKE) serve-smoke-resume
	$(MAKE) check
	$(MAKE) bench-online
	$(MAKE) bench-serve
	$(MAKE) bench-scale
	$(MAKE) bench-gate

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-mqo:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/test_mqo_perf.py \
		"benchmarks/test_experiments.py::test_experiment[fig9a]" \
		"benchmarks/test_experiments.py::test_experiment[fig9b]" --benchmark-only
	PYTHONPATH=src $(PYTHON) benchmarks/mqo_snapshot.py BENCH_mqo.json

bench-faults:
	PYTHONPATH=src $(PYTHON) benchmarks/faults_snapshot.py BENCH_faults.json

bench-online:
	PYTHONPATH=src $(PYTHON) benchmarks/online_snapshot.py BENCH_online.json

bench-serve:
	PYTHONPATH=src $(PYTHON) benchmarks/serve_snapshot.py BENCH_serve.json

# The EXT5 sharded scale sweep (10^5-query steady stream + burst +
# pressure); writes the throughput-ratchet baseline for bench-gate.
bench-scale:
	PYTHONPATH=src $(PYTHON) benchmarks/scale_snapshot.py BENCH_scale.json

# Re-run every committed benchmark snapshot and fail on wall-clock or IV
# regressions; the slowdown multiple comes from BENCH_GATE_TOLERANCE
# (default 3.0).  Appends BENCH_history.jsonl.
bench-gate:
	PYTHONPATH=src $(PYTHON) -m repro bench-gate

experiments:
	$(PYTHON) -m repro all

# Audit every claimed paper shape; exits non-zero on any failed claim.
check:
	PYTHONPATH=src $(PYTHON) -m repro check

examples:
	@for example in examples/*.py; do \
		echo "== $$example =="; \
		$(PYTHON) $$example || exit 1; \
	done

all: test bench check
