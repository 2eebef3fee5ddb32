# Convenience targets for the reproduction.

PYTHON ?= python

.PHONY: install test bench bench-small bench-json bench-json-pr7 \
	bench-json-pr10 bench-regression examples table1 casestudies clean

install:
	$(PYTHON) setup.py develop

# Tier-1 verification command (matches ROADMAP.md); works from a
# clean checkout, no `setup.py develop` needed.
test:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m pytest -x -q

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-small:
	REPRO_BENCH_SCALE=small $(PYTHON) -m pytest benchmarks/ --benchmark-only

# Exec-tier / sampling matrix (BENCH_PR7.json at the repo root):
# interp-vs-compiled ops/sec, tracked-vs-untraced throughput with the
# adaptive burst schedule, estimated-vs-exact frequency error, and
# the perf gates CI's regression guard compares against.
bench-json-pr7:
	$(PYTHON) benchmarks/bench_matrix.py

# Service metrics-overhead guard (BENCH_PR10.json at the repo root):
# daemon ingest throughput under serve's default telemetry hub (flight-
# recorder ring, which also serves the stats metrics) vs the disabled
# NULL hub over a real unix-socket session; gate <=5% overhead
# (docs/OBSERVABILITY.md).
bench-json-pr10:
	$(PYTHON) benchmarks/bench_matrix.py --metrics

# The canonical machine-readable record is the PR7 matrix; the
# earlier BENCH_PR*.json files stay committed as history.
bench-json: bench-json-pr7

# Re-measure the matrix (quick sizes) and fail if a tracked-s16 ratio
# regressed >10% against the committed BENCH_PR7.json baseline.
bench-regression:
	$(PYTHON) tools/check_bench_regression.py

examples:
	for f in examples/*.py; do echo "== $$f"; $(PYTHON) $$f; done

table1:
	$(PYTHON) -m repro table1

casestudies:
	$(PYTHON) -m repro casestudies

clean:
	rm -rf build dist src/*.egg-info .pytest_cache benchmarks/results
	find . -name __pycache__ -type d -exec rm -rf {} +
