# Developer entry points.  All targets run from the repo root; the
# package lives under src/, so every python invocation sets PYTHONPATH.
#
#   make test         tier-1 test suite (unit + integration + property +
#                     the paper-figure tests in tests/paper/)
#   make test-all     tier-1 plus the @pytest.mark.slow tier
#   make bench        every benchmark (scale + differential gates)
#   make bench-scale  just the spatial-grid scale benchmark (fast)
#   make bench-events just the event-driven handover benchmark (fast)
#   make bench-dtn    just the DTN delivery/wakeup benchmark
#   make bench-capacity  just the bandwidth-limited contact benchmark
#   make bench-fault  just the fault-injection differential benchmark
#   make bench-phy    just the lossy-PHY differential benchmark
#   make sweep        run the demo_sweep experiment campaign (4 workers)
#   make dtn-sweep    run the DTN routing-baseline campaign (4 workers)
#   make bandwidth-sweep  run the bandwidth-limited DTN campaign
#   make resume-smoke interrupt/resume + cache-hit differential smoke
#   make lint         byte-compile every source tree (syntax/tab check,
#                     bytecode kept out of the checkout) and find unused
#                     imports (tools/check_imports.py)
#   make docs-check   verify intra-repo links in README + docs/*.md
#   make report       render results/report/REPORT.md (benchmarks/ledger.py)
#   make gate         regression-gate BENCH_*.json vs committed baselines
#                     (benchmarks/ledger.py)
#   make perf         the repo benchmark: four phase-timed workloads
#   make reach        which src/ functions production runs, gates and
#                     unit tests reach (tools/reach_audit.py, ~6 min)
#   make quickstart   run the two-device example end to end

PYTHON ?= python
export PYTHONPATH := src

BENCHES := $(wildcard benchmarks/bench_*.py)

.PHONY: test test-all bench bench-scale bench-events bench-dtn \
        bench-capacity bench-fault bench-phy sweep \
        dtn-sweep bandwidth-sweep resume-smoke lint docs-check report \
        gate perf reach quickstart

test:
	$(PYTHON) -m pytest -x -q

# Everything, including the @pytest.mark.slow tier that tier-1
# deselects (pyproject's addopts): the hypothesis fault-determinism
# properties and any other long-running fuzzing.
test-all:
	$(PYTHON) -m pytest -x -q -m "slow or not slow"

bench:
	$(PYTHON) -m pytest $(BENCHES) -q -s

bench-scale:
	$(PYTHON) -m pytest benchmarks/bench_scale_neighbors.py -q -s

# Polling vs event-driven handover monitoring (writes
# BENCH_event_handover.json).  BENCH_EVENT_N overrides the N=500 farm
# size (the CI bench-smoke job runs it small).
bench-events:
	$(PYTHON) -m pytest benchmarks/bench_event_handover.py -q -s

# DTN routing baselines + forwarder wakeups (writes
# BENCH_dtn_delivery.json).  BENCH_DTN_N overrides the N=500 island
# world (the CI bench-smoke job runs it small).
bench-dtn:
	$(PYTHON) -m pytest benchmarks/bench_dtn_delivery.py -q -s

# Bandwidth-limited contacts: PRoPHET vs epidemic under per-contact
# byte budgets (writes BENCH_contact_capacity.json).  BENCH_CAP_N
# overrides the N=120 rural-bus farm (the CI bench-smoke job runs it
# small).
bench-capacity:
	$(PYTHON) -m pytest benchmarks/bench_contact_capacity.py -q -s

# Fault-injection differential gates: zero-rate identity, monotone
# degradation, redundancy-beats-direct, 1-vs-2-worker determinism
# (writes BENCH_fault_tolerance.json).  BENCH_FAULT_REPEATS shrinks
# the sweep's repeat count (the CI bench-smoke job uses 1).
bench-fault:
	$(PYTHON) -m pytest benchmarks/bench_fault_tolerance.py -q -s

# Lossy-PHY differential gates: zero-knob identity vs dtn_bandwidth,
# contention erodes epidemic's flooding advantage, 1-vs-2-worker +
# cached determinism of phy_sweep (writes BENCH_phy.json).
# BENCH_PHY_REPEATS shrinks the sweep's repeat count (CI uses 1).
bench-phy:
	$(PYTHON) -m pytest benchmarks/bench_phy.py -q -s

# The reference experiment campaign: 36 runs (3 scenarios x 2 node
# counts x 2 radio mixes x 3 repeats) -> results/demo_sweep/.  Output
# is byte-identical at any --workers value, and the campaign layer
# caches every finished cell (<out>/cache), so re-runs and interrupted
# runs only execute what is missing.
sweep:
	$(PYTHON) -m repro.experiments run demo_sweep --workers 4

# The DTN campaign: every routing baseline paired per run on the
# store-carry-forward scenario family -> results/dtn_sweep/.
dtn-sweep:
	$(PYTHON) -m repro.experiments run dtn_sweep --workers 4

# The bandwidth-limited campaign: epidemic vs spray vs PRoPHET where
# contact windows price byte budgets -> results/bandwidth_sweep/.
bandwidth-sweep:
	$(PYTHON) -m repro.experiments run bandwidth_sweep --workers 4

# Campaign crash/resume differential: runs delay_sweep, SIGTERMs it
# after the first cell lands in its run cache, resumes, and asserts the
# resumed output is byte-identical to a clean run while executing only
# the uncached cells — then re-runs against the clean cache asserting
# 100% hits (mirrors the CI resume-smoke job).
resume-smoke:
	$(PYTHON) tools/resume_smoke.py

# The container bakes in no external linter (flake8/ruff); compileall +
# tabnanny catch syntax errors and indentation mixups, and
# tools/check_imports.py (stdlib ast) unused imports, without new deps.
# compileall writes its bytecode under a throwaway PYTHONPYCACHEPREFIX,
# so linting leaves no __pycache__ in the checkout (a byte-compiled tree
# times differently under perf/run.py than a fresh one).
lint:
	pycache=$$(mktemp -d) && \
	  PYTHONPYCACHEPREFIX=$$pycache $(PYTHON) -m compileall -q \
	    src tests benchmarks examples tools perf; \
	  status=$$?; rm -rf $$pycache; exit $$status
	$(PYTHON) -m tabnanny src tests benchmarks examples tools perf
	$(PYTHON) tools/check_imports.py

# Intra-repo Markdown link check (README, CHANGES, ROADMAP, docs/*.md);
# external URLs are ignored so CI never flakes on the network.
docs-check:
	$(PYTHON) tools/check_links.py

# Fold every BENCH_*.json snapshot, sweep runs.jsonl and the perf
# trajectory into results/report/REPORT.md.
report:
	$(PYTHON) benchmarks/ledger.py report

# Compare the root BENCH_*.json against the committed CI-size baselines
# (results/bench_baseline/): fails when any non-wall metric differs
# from its baseline (the benches are deterministic per seed).  Run the
# benches at the CI sizes first (BENCH_EVENT_N=60 BENCH_DTN_N=60
# BENCH_CAP_N=24 BENCH_FAULT_REPEATS=1 BENCH_PHY_REPEATS=1): a snapshot
# measured at another N or repeat count than its baseline exits 2.
gate:
	$(PYTHON) benchmarks/ledger.py gate --baseline results/bench_baseline --fresh .

# The repo benchmark declared in BENCHMARK.json: four workloads, each
# timed per phase (setup/run/wall, peak RSS) and traced layer by layer
# (see perf/README.md).
perf:
	python3 perf/run.py

# Reach audit: every src/repro function classed by the first set of runs
# that enters it (production, gates, unit tests, nothing).  Exits 1 when
# an untagged function is reached by unit tests alone or by nothing, and
# 2 when one of its runs fails.
reach:
	$(PYTHON) tools/reach_audit.py

quickstart:
	$(PYTHON) examples/quickstart.py
