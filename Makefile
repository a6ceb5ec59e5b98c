.PHONY: all build test check bench micro satcore lint compare fmt clean

all: build

build:
	dune build @all

test:
	dune runtest

# The gate a change must pass before review: full build and the whole
# test suite, which includes the crbench smoke (every benchmark workload
# on toy inputs with its reference checks, a kill -9 of a real crsolved
# among them).
check: build
	dune runtest

bench:
	dune exec bench/main.exe

# Bechamel micro-benchmarks of the core operations (ns per run, OLS
# estimate), with the minor words one encode_4000 run allocates
micro:
	dune exec bench/main.exe -- micro

# SAT-core scaling curve: the default Exact-mode engine on one Person
# entity per size (2000/5000/10000/20000 tuples, linearly-growing
# histories; min and median of 3 timed runs each);
# writes BENCH_satcore.json and exits non-zero unless every size resolves
# identically to Framework.resolve, the standalone Fig. 4 loop.
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

# A/B benchmark of the working tree against the revision BASE, as
# benchmark/README.md ("Comparing") prescribes: BASE is exported with
# git archive into .crbench/base, then for each workload w of WORKLOAD (a
# space-separated list) PAIRS pairs of
#   benchmark/run.sh --workload w --seed i --seconds 15 --trace 0
# run on both sides (pair i uses seed i; the base runs first in odd
# pairs, the change in even ones), and one crbench compare per workload
# judges the --out files of .crbench/compare/w/ against BENCHMARK.json.
#   make compare BASE=<rev> WORKLOAD="long-history batch-person" PAIRS=10
BASE =
WORKLOAD = long-history
PAIRS = 10

compare:
	@test -n "$(BASE)" || { echo "usage: make compare BASE=<rev> [WORKLOAD='w ...'] [PAIRS=n]" >&2; exit 2; }
	rm -rf .crbench/base
	mkdir -p .crbench/base
	git archive --format=tar $(BASE) | tar -x -C .crbench/base
	set -e; for w in $(WORKLOAD); do \
	  dir=.crbench/compare/$$w; rm -rf $$dir; mkdir -p $$dir; \
	  for i in $$(seq 1 $(PAIRS)); do \
	    n=$$(printf %02d $$i); \
	    if [ $$(( i % 2 )) -eq 1 ]; then order="base change"; else order="change base"; fi; \
	    for side in $$order; do \
	      if [ $$side = base ]; then tree=.crbench/base; out=p$$n.json; else tree=.; out=c$$n.json; fi; \
	      echo "$$w pair $$i/$(PAIRS): $$side, seed $$i" >&2; \
	      bash $$tree/benchmark/run.sh --workload $$w --seed $$i \
	        --seconds 15 --trace 0 --out $(CURDIR)/$$dir/$$out > /dev/null; \
	    done; \
	  done; \
	done
	set -e; for w in $(WORKLOAD); do \
	  echo "== $$w"; \
	  ./_build/default/benchmark/crbench.exe compare .crbench/compare/$$w/p*.json -- .crbench/compare/$$w/c*.json; \
	done

# Requires ocamlformat (see .ocamlformat for the pinned profile); not part
# of `check` so the gate works on toolchains without it.
fmt:
	dune build @fmt --auto-promote

clean:
	dune clean
