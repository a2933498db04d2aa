# Repro toolchain: `make test` is the tier-1 gate; `make examples` /
# `make smoke` run every script under examples/ so facade-API drift
# fails loudly; `make bench` runs the benchmark suite; `make ci` runs
# exactly what the CI workflow runs, job by job.

PY ?= python
RUFF ?= ruff

export PYTHONPATH := src

.PHONY: test test-audit bench bench-collect bench-smoke bench-adaptive coverage examples smoke lint lint-cq test-recovery obs-demo ledger ledger-compare profile ci

test:
	$(PY) -m pytest -x -q

# The lifecycle suites with the gateway's plan-invariant verifier on:
# every register / deregister / drained step audits that what the
# queries hold (readers, demand, statics, MQO subscriptions, scheduler
# placements) matches what the owners count — so an on-demand explain
# (tests/test_analysis.py) that took a reference fails here too.
test-audit:
	REPRO_AUDIT=1 $(PY) -m pytest -x -q tests/test_invariants.py \
		tests/test_registration.py tests/test_one_engine.py \
		tests/test_sharded.py tests/test_mqo.py tests/test_analysis.py

# The CI coverage gate over the streaming execution core.  CI installs
# pytest-cov and fails below COV_MIN; locally the target skips
# gracefully when the plugin is missing.
COV_MIN ?= 85
coverage:
	@if $(PY) -c "import pytest_cov" >/dev/null 2>&1; then \
		$(PY) -m pytest -x -q \
			--cov=repro.exastream --cov=repro.streams \
			--cov-report=term --cov-report=xml:coverage.xml \
			--cov-fail-under=$(COV_MIN); \
	else \
		echo "pytest-cov not installed; skipping coverage (CI installs it)"; \
	fi

lint:
	@if command -v $(RUFF) >/dev/null 2>&1; then \
		$(RUFF) check src tests benchmarks examples; \
	elif $(PY) -m ruff --version >/dev/null 2>&1; then \
		$(PY) -m ruff check src tests benchmarks examples; \
	else \
		echo "ruff not installed; skipping lint (CI installs the pinned version)"; \
	fi

# Static CQ analysis over everything this repo ships: the 20 Siemens
# diagnostic-catalog tasks plus every STARQL query embedded in the
# example scripts.  Exits non-zero on any error-severity diagnostic.
lint-cq:
	$(PY) -m repro.analysis --siemens --examples examples

bench:
	$(PY) -m pytest benchmarks/bench_*.py -q

# Import and collect every bench file without running one (~1 s): the
# bench files are outside the tier-1 suite, so a bench that still
# imports a deleted name fails here rather than only on `make bench`.
bench-collect:
	$(PY) -m pytest benchmarks/bench_*.py --collect-only -q

# The CI benchmark job: the sharded-engine, pane-join and adaptive
# benches on tiny workloads, with machine-readable results for the
# workflow artifact — the three shapes no ledger workload covers yet
# (fork shards, pane joins, `adaptive=True`).  Session polling, pane vs
# recompute, MQO sharing, bus fan-out, recovery time, checkpoint size
# and tracing overhead are ledger metrics (`make ledger`), not ratio
# gates here.
bench-smoke:
	$(PY) -m pytest benchmarks/bench_sharded_engine.py \
		benchmarks/bench_join.py \
		benchmarks/bench_adaptive.py \
		-q --smoke --benchmark-json=bench-results.json

# The adaptive-planning gates alone, at full workload scale: auto tier
# >= 0.9x the best static tier everywhere, >= 2x over the worst static
# tier on an adversarial workload, byte-identical output on every tier.
bench-adaptive:
	$(PY) -m pytest benchmarks/bench_adaptive.py -q

# The crash/recovery differential + fault-injection suite, with the
# gateway's plan-invariant verifier on (the CI fault-injection job).
test-recovery:
	REPRO_AUDIT=1 $(PY) -m pytest tests/test_recovery.py -q

# The repo benchmark (BENCHMARK.json): STARQL text -> delivered
# WindowResult on four workloads, absolute numbers plus a per-layer
# trace; see benchmarks/ledger/README.md.  Reports land in
# benchmarks/ledger/out/.  The run fails when a traced entry point no
# longer resolves (a refactor renamed what the trace table wraps):
#   make ledger ARGS="--scale quick"        # all four workloads, small
#   make ledger ARGS="--workload pane_hot --trace 1"
#   make ledger-compare LEDGER_A=old.json LEDGER_B=new.json
ledger:
	@$(PY) benchmarks/ledger/run.py $(ARGS) 2> ledger-stderr.log; \
	status=$$?; cat ledger-stderr.log >&2; \
	if grep -q "does not resolve" ledger-stderr.log; then \
		echo "ledger: a traced entry point does not resolve" >&2; exit 1; \
	fi; exit $$status

ledger-compare:
	$(PY) benchmarks/ledger/compare.py $(LEDGER_A) $(LEDGER_B)

# Where one ledger pass spends its time: a warm-up pass, then one pass
# under cProfile (top 25 by cumulative and by self time) and a
# per-query table of PlanRuntime.execute_window.  For finding
# candidates; a gain is measured with `make ledger`, profiling off.
#   make profile WORKLOAD=siemens_catalog SEED=11
WORKLOAD ?= siemens_catalog
SEED ?= 11
profile:
	$(PY) benchmarks/profile_pass.py --workload $(WORKLOAD) --seed $(SEED)

smoke:
	$(PY) -m pytest tests/test_examples_smoke.py -q

# The monitoring surface end to end: run the async dashboard example
# with tracing on, then render the trace through the `repro.obs` CLI.
OBS_TRACE ?= obs-demo-trace.jsonl
obs-demo:
	rm -f $(OBS_TRACE)
	REPRO_TRACE=$(OBS_TRACE) $(PY) examples/async_dashboard.py
	$(PY) -m repro.obs $(OBS_TRACE)

examples:
	@set -e; for script in examples/*.py; do \
		echo "== $$script"; \
		$(PY) $$script > /dev/null; \
	done; echo "all examples OK"

ci: lint lint-cq test test-audit test-recovery smoke examples bench-collect bench-smoke
