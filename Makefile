.PHONY: all build test check bench satcore lint fmt clean

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

# Requires ocamlformat (see .ocamlformat for the pinned profile); not part
# of `check` so the gate works on toolchains without it.
fmt:
	dune build @fmt --auto-promote

clean:
	dune clean
