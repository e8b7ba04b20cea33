PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-slow test-faults bench bench-pipeline annotate-bench \
	dispatch-bench obs-bench incremental-bench http-bench shadow-bench \
	obs-window-bench bench-tables lint

# Tier-1: slow (full-scale pipeline) tests are excluded by the default
# pytest addopts (-m "not slow"); `make test-slow` runs only those.
test:
	$(PYTHON) -m pytest tests/ -q

test-slow:
	$(PYTHON) -m pytest tests/ -q -m slow

# Fault-injection suite: injected worker crashes, poison chunks,
# hang + timeout, degrade-to-serial, and checkpoint-resume round
# trips (docs/ROBUSTNESS.md).  CI runs this in its own job.
test-faults:
	$(PYTHON) -m pytest tests/core/test_resilience.py \
		tests/serve/test_faults.py -q -m 'slow or not slow'

bench:
	$(PYTHON) benchmarks/bench_report.py

bench-pipeline:
	$(PYTHON) benchmarks/bench_report.py --pipeline-only

# Annotation throughput (hostnames/sec cold vs warm, serial vs
# parallel) into the `serve` section of BENCH_learner.json.
annotate-bench:
	$(PYTHON) benchmarks/bench_report.py --serve-only

# Single-core hot-path kernels only (fused dispatch + Zipf memo),
# keeping the bulk fan-out numbers of the serve section intact.
dispatch-bench:
	$(PYTHON) benchmarks/bench_report.py --dispatch-only

# Tracer overhead (tracing disabled vs enabled, asserted under the
# 2% budget) into the `obs` section of BENCH_learner.json.
obs-bench:
	$(PYTHON) benchmarks/bench_report.py --obs-only

# Incremental learning (cold vs warm-repeat vs perturbed timeline
# through the per-suffix cache) into the `incremental` section.
incremental-bench:
	$(PYTHON) benchmarks/bench_report.py --incremental-only

# Network serving (pre-fork server + open/closed-loop load generator)
# into the `http` section of BENCH_learner.json.
http-bench:
	$(PYTHON) benchmarks/bench_report.py --http-only

# Shadow deployment (dual-annotation overhead vs a single set, plus
# the exact divergence ledger) into the `shadow` section.
shadow-bench:
	$(PYTHON) benchmarks/bench_report.py --shadow-only

# Windowed telemetry (access-log line + rolling-window fold, asserted
# under the 3% budget) into the `obs_window` section.
obs-window-bench:
	$(PYTHON) benchmarks/bench_report.py --obs-window-only

bench-tables:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

# Unused imports in the package, tests and benchmarks (stdlib ast;
# also a tier-1 test).
lint:
	$(PYTHON) tests/test_lint.py
