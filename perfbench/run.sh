#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload eagle-shelf --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run leave behind stays under .bench_build/ in
# the working directory: the Go build cache, the binary, temporary data
# directories and the per-workload, per-binary determinism references.
set -euo pipefail
root="$(pwd)"
out="${root}/.bench_build/perfbench"
mkdir -p "${out}/gocache" "${out}/gopath" "${out}/tmp" "${out}/config"
export GOCACHE="${out}/gocache"
export GOPATH="${out}/gopath"
export GOTMPDIR="${out}/tmp"
# Keep the go command's user config and telemetry inside the checkout too,
# and keep an outer go.work or GOFLAGS from changing the build.
export XDG_CONFIG_HOME="${out}/config"
export GOENV=off
export GOWORK=off
export GOFLAGS=
export GOTOOLCHAIN=local
export GOPROXY=off
(cd "${root}/perfbench" && go build -o "${out}/perfbench" .) >&2
exec "${out}/perfbench" --state "${out}" "$@"
