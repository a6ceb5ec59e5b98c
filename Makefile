.PHONY: all build test check bench batch par templates deduce saturate satcore lint robustness daemon recovery fmt clean

all: build

build:
	dune build @all

test:
	dune runtest

# The gate a change must pass before review: full build, the whole test
# suite, and a small batch-engine smoke run (engine vs naive equivalence
# on live data, not just the unit fixtures).
check: build
	dune runtest
	dune exec bench/main.exe -- batch_smoke

bench:
	dune exec bench/main.exe

batch:
	dune exec bench/main.exe -- batch

# Domain-parallel engine vs sequential (jobs from $$CRSOLVE_JOBS, else 4);
# writes BENCH_par.json and requires identical results.
par:
	dune exec bench/main.exe -- par

# The template-compilation headline runs: the distinct-entity Person
# batch (120 and 2000 entities; template_hit_ratio >= 0.9 ratchet) and
# the multi-core scaling curve (jobs in {1,2,4,8}; summed encode phase
# at jobs=4 bounded by 1.5x the sequential sum). Writes BENCH_batch.json,
# BENCH_batch2k.json and BENCH_par.json.
templates:
	dune exec bench/main.exe -- batch batch2k par

# Backbone vs naive vs unit-prop deduction on the Person batch; writes
# BENCH_deduce.json and exits non-zero if backbone and naive_deduce ever
# disagree on a deduced order.
deduce:
	dune exec bench/main.exe -- deduce

# Static saturation pre-phase on vs off on the Person batch; writes
# BENCH_saturate.json and exits non-zero unless resolutions are identical
# both ways and the pre-phase avoided at least one deduction probe
# (the probes_avoided > 0 ratchet).
saturate:
	dune exec bench/main.exe -- saturate

# SAT-core scaling curve: the default Exact-mode engine on one Person
# entity per size (2000/5000/10000 tuples, linearly-growing histories);
# writes BENCH_satcore.json and exits non-zero unless every size resolves
# identically to the naive config.
satcore:
	dune exec bench/main.exe -- satcore

# Lint the shipped example data. The paper's own Fig. 3 constraint set
# carries exactly one true redundancy on this data — W007 on Σ#2
# ('sailor < veteran' already follows from φ1 + φ5 on George) — so the
# clean set must exit 1 with precisely that one warning, and the broken
# set must exit 2 (errors found). Both pinned outcomes are the gate.
lint: build
	dune exec bin/crsolve.exe -- lint -e examples/data/photo.csv \
	  -s examples/data/sigma.txt -g examples/data/gamma.txt \
	  > /tmp/lint_clean.out; test $$? -eq 1
	cat /tmp/lint_clean.out
	test "$$(grep -c '^W' /tmp/lint_clean.out)" = 1
	grep -q "^W007 .*(Σ#2 " /tmp/lint_clean.out
	dune exec bin/crsolve.exe -- lint -e examples/data_broken/photo.csv \
	  -s examples/data_broken/sigma.txt -g examples/data_broken/gamma.txt; \
	  test $$? -eq 2

# Fault-injection suite plus the poisoned-batch bench smoke: per-entity
# isolation, the degradation ladder under budgets, and jobs=1 == jobs=4
# determinism; writes BENCH_robustness_smoke.json.
robustness: build
	dune exec test/test_robustness.exe
	dune exec bench/main.exe -- robustness_smoke

# Session layer + crsolved daemon: the test suite (interleaved-arrival
# parity, store bounds, budgets, socket round trip) plus the streaming
# bench smoke (incremental vs cold over an update log, a real daemon on a
# Unix socket); writes BENCH_daemon_smoke.json.
daemon: build
	dune exec test/test_session.exe
	dune exec bench/main.exe -- daemon_smoke

# Durability: the WAL/snapshot/recovery test suite (torn tails, duplicate
# delivery, kill-point parity properties) plus the crash-injection bench
# smoke, which kill -9s a real forked crsolved mid-stream, restarts it on
# the same WAL dir, and fails unless the recovered answers are
# bit-identical (recovered_parity) with zero lost events and fsync=interval
# throughput within 0.8x of the no-WAL baseline; writes
# BENCH_recovery_smoke.json.
recovery: build
	dune exec test/test_durable.exe
	dune exec bench/main.exe -- recovery_smoke

# Requires ocamlformat (see .ocamlformat for the pinned profile); not part
# of `check` so the gate works on toolchains without it.
fmt:
	dune build @fmt --auto-promote

clean:
	dune clean
