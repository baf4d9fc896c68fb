#!/bin/sh
# Builds the benchmark inside the checkout (bench/ is a module of its own,
# replacing subdex with the checkout around it) and runs it with the
# arguments given. Run it from the root of the checkout:
#
#	sh bench/run.sh --workload guided_walk --seed 1 --seconds 25 --trace 0
#
# The build cache and the binary live in .bench_build/, so the benchmark
# writes nothing outside the checkout; the first build there compiles the
# standard library too and takes about 20 s.
set -eu
root=$(pwd)
export GOCACHE="$root/.bench_build/gocache"
(cd bench && go build -o "$root/.bench_build/bench" .)
exec "$root/.bench_build/bench" "$@"
