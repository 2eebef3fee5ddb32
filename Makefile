# Convenience targets for the reproduction.

PYTHON ?= python

.PHONY: install test bench bench-small gates examples table1 casestudies \
	clean

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

# Every perf gate in tools/gates.py's table, full-size rows included
# (~1.5 min on a 2-vCPU host); CI runs the quick rows by name.
gates:
	$(PYTHON) tools/gates.py

examples:
	for f in examples/*.py; do echo "== $$f"; $(PYTHON) $$f; done

table1:
	$(PYTHON) -m repro table1

casestudies:
	$(PYTHON) -m repro casestudies

clean:
	rm -rf build dist src/*.egg-info .pytest_cache benchmarks/results
	find . -name __pycache__ -type d -exec rm -rf {} +
