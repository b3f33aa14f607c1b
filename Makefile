# Development commands for the repro library.

.PHONY: install test bench bench-tables faults-smoke telemetry-smoke runtime-smoke perf-smoke chaos-smoke taskplane-smoke federation-smoke bench-record bench-check dash-smoke examples outputs all clean

install:
	pip install -e . || python setup.py develop

test:
	pytest tests/

bench:
	pytest benchmarks/ --benchmark-only

bench-tables:
	pytest benchmarks/ -s

# quick end-to-end check of the fault-injection + self-healing subsystem
faults-smoke:
	PYTHONPATH=src pytest benchmarks/bench_e23_fault_recovery.py \
		tests/test_faults.py tests/test_fault_recovery.py \
		tests/test_protocol_lossy.py -q

# quick end-to-end check of the telemetry layer: exporters via the CLI,
# then the telemetry suite + the E24 disabled-overhead bar
telemetry-smoke:
	@tmp=$$(mktemp -d); trap 'rm -rf $$tmp' EXIT; \
	tree='P0(w=3)[P1(w=2,c=1),P2(w=2,c=2)]'; \
	PYTHONPATH=src python -m repro metrics "$$tree" --dsl --horizon 12 \
		> $$tmp/metrics.txt && \
	PYTHONPATH=src python -m repro trace "$$tree" --dsl \
		--out $$tmp/trace.json && \
	PYTHONPATH=src python -m repro trace "$$tree" --dsl --format jsonl \
		--out $$tmp/trace.jsonl && \
	PYTHONPATH=src pytest tests/test_telemetry.py \
		benchmarks/bench_e24_telemetry_overhead.py -q

# quick end-to-end check of the distributed runtime: negotiate the Fig. 4
# tree over in-process queues and over real loopback TCP sockets, then the
# runtime suite + the E25 cross-substrate bench.  `timeout` hard-bounds the
# wall clock so a hung socket fails fast instead of wedging CI.
runtime-smoke:
	@tmp=$$(mktemp -d); trap 'rm -rf $$tmp' EXIT; \
	timeout 300 sh -c "\
		PYTHONPATH=src python -c 'from repro.platform import save_tree; \
			from repro.platform.examples import paper_figure4_tree; \
			save_tree(paper_figure4_tree(), \"$$tmp/fig4.json\")' && \
		PYTHONPATH=src python -m repro runtime $$tmp/fig4.json \
			--transport inproc && \
		PYTHONPATH=src python -m repro runtime $$tmp/fig4.json \
			--transport tcp && \
		PYTHONPATH=src pytest tests/test_runtime.py \
			benchmarks/bench_e25_runtime.py -q"

# perf regression gate for the incremental solver + the integer timeline
# kernel: the E26 and E27 gate tests plus their unit suites, hard-bounded
# by `timeout` so a pathological regression fails fast instead of wedging
# CI.  The E26 gate asserts node_evals(incremental) < node_evals(full) on
# a single-leaf mutation (a count, so it cannot flake on slow runners);
# the E27 gate asserts the int kernel's best-of-3 run() CPU time strictly
# beats the Fraction kernel's (an expected ~2-3x gap, so noise cannot
# invert it) and that a leaf mutation recomputes strictly fewer schedule
# fragments than a full rebuild.  The E31 gate asserts the array kernel
# strictly beats the int kernel at 10k nodes (~3x expected) and that a
# 100k-node, >=1M-event array run completes inside the timeout; a second
# pytest leg re-runs the engine/timeline suites and the tick-native trace
# parity suite with REPRO_NO_NUMPY=1 so the pure-Python array backend
# stays green on hosts without numpy.
perf-smoke:
	timeout 600 sh -c "\
		PYTHONPATH=src pytest \
			'benchmarks/bench_e26_incremental.py::test_e26_perf_smoke_gate' \
			'benchmarks/bench_e27_timeline.py::test_e27_perf_smoke_gate' \
			'benchmarks/bench_e31_arraykernel.py::test_e31_perf_smoke_gate' \
			'benchmarks/bench_e31_arraykernel.py::test_e31_100k_nodes_million_events' \
			tests/test_incremental.py tests/test_timeline.py -q && \
		PYTHONPATH=src REPRO_NO_NUMPY=1 pytest \
			tests/test_engine.py tests/test_timeline.py \
			tests/test_trace_parity.py -q && \
		PYTHONPATH=src python -m repro bench-incr --nodes 200 --mutations 5 && \
		PYTHONPATH=src python -m repro bench-timeline --nodes 200 --kernel int && \
		PYTHONPATH=src python -m repro bench-timeline --nodes 200"

# the self-healing gate: 100 seeded random fault sequences (crashes,
# rejoins, root failover, hostile links, background loss) must EVERY one
# converge back to the exact BW-First optimum of whatever platform
# survives, checked against a from-scratch solve.  Deterministic by seed —
# a failure is a real bug, never flake.  `timeout` hard-bounds the wall
# clock so a wedged recovery fails fast instead of hanging CI.
chaos-smoke:
	timeout 540 sh -c "\
		PYTHONPATH=src pytest \
			'benchmarks/bench_e28_chaos.py::test_chaos_gate' \
			tests/test_chaos.py tests/test_fault_recovery.py \
			tests/test_detect.py -q && \
		PYTHONPATH=src python -m repro chaos --sequences 100"

# the task-plane gate: real payloads under the negotiated schedule must
# converge to the solver optimum, stay inside the analytic buffer bounds,
# and account every task exactly once — on the in-proc, loopback-TCP and
# multi-process cluster substrates, including under seeded payload faults.
# `timeout` hard-bounds the wall clock so a wedged socket or a stalled
# child process fails fast instead of hanging CI.
taskplane-smoke:
	timeout 540 sh -c "\
		PYTHONPATH=src pytest benchmarks/bench_e30_taskplane.py \
			tests/test_taskplane.py tests/test_taskplane_tcp.py -q && \
		PYTHONPATH=src python -m repro exec --transport inproc --tasks 60 && \
		PYTHONPATH=src python -m repro chaos --data-plane --sequences 3"

# the multi-tenant federation gate: the federation suite (per-tenant
# bit-exactness, shard crash retry, only shard processes spawned, per-shard
# evals repeating across identical runs, ring / wire units) plus the E32
# gate test (bit-exact, federated evals equal across two runs, federated
# churn strictly beats N isolated full solvers), then a small
# `repro federate bench` run through the CLI.  Then the repo benchmark's
# own suite on its tiny size (it reads the solver's cache_info() and the
# service's stats() keys, so it catches a renamed one) and a traced
# federation workload run twice, which must repeat every count.
# `timeout` hard-bounds the wall clock so a wedged shard worker fails fast.
federation-smoke:
	timeout 540 sh -c "\
		PYTHONPATH=src pytest tests/test_federation.py \
			benchmarks/bench_e32_federation.py -q && \
		PYTHONPATH=src python -m repro federate bench --tenants 4 \
			--nodes 80 --mutations 6 --batch 3 --json > /dev/null && \
		python3 -m pytest perfbench/test_perfbench.py -q && \
		python3 perfbench/check_counts.py --workload federation --seed 1 \
			--seconds 3 --size tiny"

# re-record the committed perf baselines (BENCH_*.json at the repo root)
bench-record:
	PYTHONPATH=src python benchmarks/record_baseline.py

# bench regression gate: re-run the recorders and diff against the
# committed BENCH_*.json — node_evals must match exactly (deterministic
# per seed), wall clock must stay under WALL_TOLERANCE (override in CI
# where runner hosts differ from the recording machine).  `timeout`
# hard-bounds the wall clock so a pathological regression fails fast.
WALL_TOLERANCE ?= 1.3
bench-check:
	timeout 540 sh -c "PYTHONPATH=src python benchmarks/check_baseline.py \
		--wall-tolerance $(WALL_TOLERANCE)"

# headless smoke of the live ops plane: boot `repro dash` against a
# seeded chaos/recovery workload, assert the SSE stream delivers epoch
# and metric events and the server shuts down cleanly, then run the live
# telemetry suites.  `timeout` hard-bounds a wedged server.
dash-smoke:
	timeout 300 sh -c "\
		PYTHONPATH=src pytest tests/test_dash.py tests/test_live.py -q && \
		PYTHONPATH=src python -m repro dash --port 0 --nodes 60 --seed 2 \
			--run-for 3"

examples:
	@for f in examples/*.py; do \
		echo "== $$f =="; \
		python $$f > /dev/null || exit 1; \
	done; echo "all examples ran cleanly"

outputs:
	pytest tests/ 2>&1 | tee test_output.txt
	pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

all: test bench

clean:
	rm -rf .pytest_cache .benchmarks src/repro.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
