PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

# The serve daemon's operational knobs; override per invocation:
#   make serve-start SERVE_LISTEN=0.0.0.0:7700 SERVE_METRICS_PORT=7701
SERVE_LISTEN ?= 127.0.0.1:7700
SERVE_METRICS_PORT ?= 7701
SERVE_STATE_DIR ?= .serve-state
SERVE_PIDFILE ?= .serve-state/repro-serve.pid
SERVE_LOG ?= .serve-state/repro-serve.log

# The end-to-end benchmark's knobs (see perfbench/README.md):
#   make perfbench W=serve-sweep SEED=7 SECONDS=90
W ?= batch-paper
SEED ?= 1
SECONDS ?= 45

.PHONY: test sweep-smoke bench bench-json perfbench clean \
	serve-start serve-stop serve-status serve-restart

test:
	$(PYTHON) -m pytest -x -q

# The CI smoke sweep: 2 jobs over 2 workers, then prove the cache works.
sweep-smoke:
	$(PYTHON) -m repro.runner --store .sweep-smoke sweep --name smoke \
	    --preset tiny --num-seeds 2 --duration-days 3 --num-urls 4 \
	    --num-vantage-points 5 --workers 2
	$(PYTHON) -m repro.runner --store .sweep-smoke report --name smoke

# bench_*.py does not match pytest's default file pattern; list the files.
bench:
	$(PYTHON) -m pytest benchmarks/bench_*.py -q

# The perf trajectory: run the headline + micro benches under
# pytest-benchmark and append a numbered BENCH_<n>.json snapshot (n =
# number of existing snapshots).  Snapshots are slimmed before landing
# (raw per-round sample arrays stripped; summary stats kept) so each one
# costs ~60 KiB instead of ~1.4 MiB.  Compare snapshots across PRs to
# catch regressions; CI runs this non-blocking.  GC is disabled during
# timed rounds (as of BENCH_3): the bench process's fixture heap is
# large enough that a gen-2 collection landing inside a round swamps
# the statistic being measured.
bench-json:
	@n=$$(ls BENCH_*.json 2>/dev/null | wc -l); \
	echo "writing BENCH_$$n.json"; \
	$(PYTHON) -m pytest benchmarks/bench_headline.py benchmarks/bench_micro.py \
	    -q --benchmark-json=BENCH_$$n.json --benchmark-disable-gc && \
	$(PYTHON) benchmarks/slim_bench.py BENCH_$$n.json && \
	$(PYTHON) -c "import json;d=json.load(open('BENCH_$$n.json'));print('\n'.join(f\"{b['name']}: {b['stats']['mean']*1000:.2f} ms (mean)\" for b in d['benchmarks']))"

# The end-to-end benchmark: a readable report, then one JSON line whose
# "correct" field is the workload's correctness gate (batch-paper
# re-solves a 300-problem sample with the solve_reference oracle).
perfbench:
	$(PYTHON) perfbench/run.py --workload $(W) --seed $(SEED) --seconds $(SECONDS)

# -- the always-on localization daemon ---------------------------------------
# serve-start backgrounds repro-serve with a pidfile and waits for
# /healthz; serve-stop SIGTERMs it (checkpointing every tenant to
# SERVE_STATE_DIR) and waits for exit; serve-status probes /healthz.

serve-start:
	@mkdir -p $(SERVE_STATE_DIR)
	@if [ -f $(SERVE_PIDFILE) ] && kill -0 $$(cat $(SERVE_PIDFILE)) 2>/dev/null; then \
	    echo "repro-serve already running (pid $$(cat $(SERVE_PIDFILE)))"; \
	else \
	    $(PYTHON) -m repro.serve --listen $(SERVE_LISTEN) \
	        --state-dir $(SERVE_STATE_DIR) \
	        --metrics-port $(SERVE_METRICS_PORT) \
	        --pidfile $(SERVE_PIDFILE) >> $(SERVE_LOG) 2>&1 & \
	    for i in $$(seq 1 50); do \
	        if curl -sf http://$${SERVE_HEALTH_HOST:-127.0.0.1}:$(SERVE_METRICS_PORT)/healthz >/dev/null 2>&1; then \
	            echo "repro-serve up on $(SERVE_LISTEN) (pid $$(cat $(SERVE_PIDFILE)))"; exit 0; \
	        fi; sleep 0.2; \
	    done; \
	    echo "repro-serve failed to become healthy; see $(SERVE_LOG)" >&2; exit 1; \
	fi

serve-stop:
	@if [ -f $(SERVE_PIDFILE) ] && kill -0 $$(cat $(SERVE_PIDFILE)) 2>/dev/null; then \
	    pid=$$(cat $(SERVE_PIDFILE)); \
	    kill $$pid; \
	    for i in $$(seq 1 100); do \
	        kill -0 $$pid 2>/dev/null || { echo "repro-serve stopped (tenants checkpointed to $(SERVE_STATE_DIR))"; exit 0; }; \
	        sleep 0.2; \
	    done; \
	    echo "repro-serve (pid $$pid) did not exit within 20s" >&2; exit 1; \
	else \
	    echo "repro-serve is not running"; \
	fi

serve-status:
	@if [ -f $(SERVE_PIDFILE) ] && kill -0 $$(cat $(SERVE_PIDFILE)) 2>/dev/null; then \
	    echo "repro-serve running (pid $$(cat $(SERVE_PIDFILE)))"; \
	    $(PYTHON) -m repro.runner status 127.0.0.1:$(SERVE_METRICS_PORT); \
	else \
	    echo "repro-serve is not running"; exit 1; \
	fi

serve-restart: serve-stop serve-start

clean:
	rm -rf .sweep-smoke .repro-results .serve-state .pytest_cache build *.egg-info
	find . -name __pycache__ -type d -prune -exec rm -rf {} +
