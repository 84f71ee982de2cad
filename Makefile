# Convenience targets for the reproduction repository.

PYTHON ?= python

.PHONY: install test test-fast test-all lint docs-check sanitize bench bench-quick reproduce reproduce-quick examples clean

install:
	$(PYTHON) setup.py develop

test-fast:
	$(PYTHON) -m pytest tests/ -m "not slow" -q

test:
	$(PYTHON) -m pytest tests/ -q

test-all: test

# Static analysis: reprolint always runs (stdlib-only); ruff and mypy run
# when installed (`pip install -e .[lint]`) and are skipped otherwise so
# the target works in a bare checkout.
lint:
	$(PYTHON) -m repro lint src/repro --strict
	@$(PYTHON) -c "import ruff" 2>/dev/null \
		&& $(PYTHON) -m ruff check src tests \
		|| echo "ruff not installed; skipping (pip install -e .[lint])"
	@$(PYTHON) -c "import mypy" 2>/dev/null \
		&& $(PYTHON) -m mypy \
		|| echo "mypy not installed; skipping (pip install -e .[lint])"

# Docs cross-reference gate: every file path, CLI subcommand, make
# target, BENCH_* document, and rule id referenced in README.md /
# ARTIFACTS.md / docs/*.md must exist.
docs-check:
	$(PYTHON) -m repro lint --docs

# Differential determinism check (docs/ANALYSIS.md), the three CI
# configurations: the quick COOP node_crash cell under PYTHONHASHSEED
# 101 vs 202 (seed 7), FIFO vs tie-break seeds 1 and 2 (seed 0), and
# obs off vs unsub/on/spans/profile (seed 0, report in
# results/sanitize-obs.json).  Every observable must meet its contract.
# The tie-break run is the race gate: a result that depends on
# same-instant order diverges there.
sanitize:
	$(PYTHON) -m repro sanitize --seed 7 --vary hashseed
	$(PYTHON) -m repro sanitize --seed 0 --vary tiebreak
	mkdir -p results
	$(PYTHON) -m repro sanitize --seed 0 --vary obs --json \
		> results/sanitize-obs.json

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

bench-quick:
	REPRO_QUICK=1 $(PYTHON) -m pytest benchmarks/ --benchmark-only -s

# One-command artifact regeneration: every registered artifact (paper
# figures/tables, BENCH_* documents, analysis reports) is rebuilt into
# results/reproduce/ with a SHA-256 + provenance manifest
# (results/MANIFEST.json) and diffed against the committed baselines.
# See ARTIFACTS.md for the registry.
reproduce:
	$(PYTHON) -m repro reproduce-all --check

reproduce-quick:
	$(PYTHON) -m repro reproduce-all --quick --check

examples:
	REPRO_QUICK=1 $(PYTHON) examples/quickstart.py
	REPRO_QUICK=1 $(PYTHON) examples/membership_partition.py
	REPRO_QUICK=1 $(PYTHON) examples/fme_in_action.py
	REPRO_QUICK=1 $(PYTHON) examples/bookstore_failover.py
	REPRO_QUICK=1 $(PYTHON) examples/auction_read_write.py

clean:
	rm -rf .pytest_cache .benchmarks results src/repro.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
