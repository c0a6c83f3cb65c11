#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in
# and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload rbes-browse-wan --seed 1 --seconds 30 --trace 0
#
# Run it from the root of the repository. Everything the build and the
# run write (Go build cache, binary, profiles, span dumps, stderr logs)
# stays under .bench_build/ there.
set -u
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home" "$out/logs" || exit 1
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" GOPATH="$out/gopath" \
	GOCACHE="$out/gocache" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly
if ! (cd perfbench && go build -o "$out/perfbench" .); then
	echo "perfbench: build failed" >&2
	exit 1
fi
# stderr goes to a log so that a crash keeps its stack after the run.
log="$out/logs/stderr.log"
"$out/perfbench" "$@" 2>"$log"
rc=$?
cat "$log" >&2
if [ "$rc" -ne 0 ] && grep -q '^panic:\|^fatal error:' "$log"; then
	cp "$log" "$out/logs/crash-$(date +%s).log"
	echo "perfbench: the run crashed (exit $rc); stack kept in .bench_build/logs/" >&2
fi
exit "$rc"
