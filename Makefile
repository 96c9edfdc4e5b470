# Common developer entry points.  Everything runs on the package in
# src/ without an install step; its one runtime dependency, networkx
# (declared in pyproject.toml), must be importable.

PYTHON ?= python
PYTEST  = PYTHONPATH=src $(PYTHON) -m pytest

.PHONY: test test-fast diff-test bench-smoke perfbench-smoke bench soak lint lint-flow obs chaos recover overload federate rebalance

# Full tier-1 suite: unit + integration + property tests.
test:
	$(PYTEST) -x -q

# Skip tests marked slow (multi-day simulation runs).
test-fast:
	$(PYTEST) -x -q -m "not slow"

# Differential proof of the compiled enforcement tables and of
# stored-path space-selector matching: the ci Hypothesis profile
# generates 250 examples per property (>= 1000 decisions checked
# against the reference interpreter, and selectors against the
# per-space contains loop, per run).
diff-test:
	REPRO_DIFF_PROFILE=diff-ci $(PYTEST) tests/differential -q

# Sanity-pass the benchmark harness without timing loops: runs each
# figure/scale benchmark once and prints the metric baseline.
bench-smoke:
	$(PYTEST) benchmarks/test_fig1_interaction.py \
	          benchmarks/test_scale_enforcement.py \
	          benchmarks/test_ablation_cache.py \
	          --benchmark-disable -q -s

# Sanity-pass the repo benchmark (perfbench/run.py): one short traced
# run per workload.  The benchmark exits 1 on a wrong answer or on a
# layer whose wrapped function no longer resolves, so a rename that
# would break the benchmark fails here first.
PERFBENCH_WORKLOADS = ingest query campus

perfbench-smoke:
	for workload in $(PERFBENCH_WORKLOADS); do \
	    $(PYTHON) perfbench/run.py --workload $$workload --seed 1 --seconds 2 --trace 1 \
	        > /dev/null || exit 1; \
	done

# Perf trajectory: the bench test suite, then a fresh ci-scale run
# written to BENCH_PR.json (the CI artifact; never a baseline) and
# gated against the last committed BENCH_<n>.json record.
bench:
	$(PYTEST) -x -q tests/test_bench_schema.py tests/test_bench_cli.py
	PYTHONPATH=src $(PYTHON) -m repro bench run --scale ci --out BENCH_PR.json
	PYTHONPATH=src $(PYTHON) -m repro bench compare --candidate BENCH_PR.json

# Capacity soak: the soak test suite, then two same-seed stepped-
# population runs whose deterministic reports must be byte-identical.
soak:
	$(PYTEST) -x -q tests/test_capacity_soak.py \
	          tests/property/test_prop_admission.py
	PYTHONPATH=src $(PYTHON) -m repro soak --report-out /tmp/repro-soak-a.txt
	PYTHONPATH=src $(PYTHON) -m repro soak --report-out /tmp/repro-soak-b.txt
	diff /tmp/repro-soak-a.txt /tmp/repro-soak-b.txt

# Static analysis: audit the DBH policy set, code-lint the tree, then
# prove the privacy-flow invariant over the call graph.
lint: lint-flow
	PYTHONPATH=src $(PYTHON) -m repro lint
	PYTHONPATH=src $(PYTHON) -m repro lint src tests benchmarks

# Interprocedural privacy-flow analysis (rules F001-F006) against the
# committed flow_baseline.json.
lint-flow:
	PYTHONPATH=src $(PYTHON) -m repro lint --flow src

# Run the Figure-1 scenario and print the observability snapshot.
obs:
	PYTHONPATH=src $(PYTHON) -m repro obs

# Fault scenarios (see the README's Scenarios table): each target runs
# its scenario's test suite, then its golden reports through the one
# CLI driver.  A golden is captured in another process, so it also
# catches cross-process nondeterminism.
SCENARIOS = chaos recover overload federate rebalance

chaos: SCENARIO_TESTS = tests/test_faults_plan.py tests/test_faults_injector.py \
	tests/test_resilience_retry.py tests/test_resilience_breaker.py \
	tests/test_enforcement_failclosed.py tests/test_chaos_scenario.py \
	tests/test_integration_failures.py tests/property/test_prop_retry.py
recover: SCENARIO_TESTS = tests/test_storage_wal.py tests/test_storage_snapshot.py \
	tests/test_storage_recovery.py tests/test_storage_durable.py \
	tests/property/test_prop_wal.py
overload: SCENARIO_TESTS = tests/test_admission.py tests/test_sensor_supervisor.py \
	tests/test_resilience_edges.py tests/test_overload_scenario.py
federate: SCENARIO_TESTS = tests/test_federation.py tests/test_federate_scenario.py
rebalance: SCENARIO_TESTS = tests/test_ring_changes.py tests/test_rebalance.py \
	tests/test_rebalance_scenario.py

$(SCENARIOS):
	$(PYTEST) -x -q $(SCENARIO_TESTS)
	$(PYTEST) -x -q tests/test_scenarios.py -k $@
