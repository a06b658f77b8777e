# Convenience targets for the ARTEMIS reproduction.

PYTHON ?= python

.PHONY: install test crashsweep conformance predict soak bench bench-baseline bench-check bench-e2e bench-layers examples figures fleet verify all

# Crash bound for the conformance checker (docs/verification.md).
BOUND ?= 2

# Parallel workers for benchmark sweeps (see docs/performance.md).
JOBS ?= 1

# Seed matrix for the randomized soak; each seed shifts hypothesis
# draws into a disjoint slice of the fault space.
SOAK_SEEDS ?= 0 1 2 3 4

install:
	pip install -e .

test:
	PYTHONPATH=src $(PYTHON) -m pytest tests/ -x -q

crashsweep:
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_crash_sweep.py tests/test_soak_random_faults.py tests/test_runtime_goldens.py tests/test_recovery.py tests/test_faults.py tests/test_retry_commit_consistency.py tests/test_runtime_power_failures.py tests/test_baselines.py tests/test_runtime_energy_golden.py tests/test_payment_path.py -q

# Bounded model checking of every workload x runtime scenario against
# its continuous-power oracle, plus the mutation self-test proving the
# checker catches an injected recovery bug. See docs/verification.md.
conformance:
	PYTHONPATH=src $(PYTHON) -m repro.cli verify --bound $(BOUND)
	PYTHONPATH=src $(PYTHON) -m repro.cli verify --self-test

# Predictor-soundness gate: the static energy analyzer's per-event
# bound must dominate the real monitor's observed spend, the Fig. 12
# cross-check must hold, and the anticipatory-shedding acceptance
# scenario must pass. Mirrors the blocking CI job; see
# docs/robustness.md (predictive degradation).
predict:
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_predictive_soundness.py \
		tests/test_analysis_energy.py tests/test_predictive_degradation.py -q

soak:
	@for s in $(SOAK_SEEDS); do \
		echo "== soak seed $$s"; \
		SOAK_SEED=$$s PYTHONPATH=src $(PYTHON) -m pytest \
			tests/test_soak_random_faults.py -q || exit 1; \
	done

# Fleet size for the staged-rollout target (docs/fleet.md).
FLEET_DEVICES ?= 24

# Staged OTA rollout of the benign v2 update across a simulated fleet,
# then the fleet unit tests. Exit 3 from the CLI means the regression
# gate halted the rollout.
fleet:
	PYTHONPATH=src $(PYTHON) -m repro.cli fleet rollout \
		--devices $(FLEET_DEVICES) --jobs $(JOBS)
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_fleet_bundle.py \
		tests/test_fleet_transport.py tests/test_fleet_install.py \
		tests/test_fleet_ota_verify.py tests/test_fleet_rollout.py \
		tests/test_fleet_control.py tests/test_fleet_digest.py \
		tests/test_fleet_soak.py -q

bench:
	REPRO_BENCH_JOBS=$(JOBS) $(PYTHON) -m pytest benchmarks/ --benchmark-only -q

bench-baseline:
	PYTHONPATH=src $(PYTHON) benchmarks/regression.py --write

bench-check:
	PYTHONPATH=src $(PYTHON) benchmarks/regression.py

# End-to-end system benchmark (benchmarks/e2e/README.md): all four
# workloads at smoke sizes, results in a fresh temporary directory.
bench-e2e:
	$(PYTHON) benchmarks/e2e/run.py --seed 0 --quick --out $$(mktemp -d)

# One workload at full size plus its traced per-layer table, e.g.
# `make bench-layers WORKLOAD=verify-crash`.
WORKLOAD ?= fleet-streamed

bench-layers:
	$(PYTHON) benchmarks/e2e/run.py --seed 0 --workload $(WORKLOAD) --trace --out $$(mktemp -d)

figures:
	REPRO_BENCH_JOBS=$(JOBS) $(PYTHON) -m pytest benchmarks/ --benchmark-only -s -q

examples:
	@for f in examples/*.py; do echo "== $$f"; $(PYTHON) $$f > /dev/null && echo OK; done

verify: test bench examples

all: install verify
